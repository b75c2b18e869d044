"""The four LAPACK routines the program calls, from scipy's compiled wrapper.

`scipy.linalg._flapack` is loaded straight from its file, so
`scipy/linalg/__init__.py`, most of scipy's import time (it builds numpy's
array-API copy, which imports `numpy.f2py`, `numpy.ma` and more), never
runs. CPython keeps one copy of a single-phase extension module per file, so
these are the same function objects `scipy.linalg.lapack` exports.
"""

import importlib.machinery
import importlib.util
import os

_NAME = "scipy.linalg._flapack"
_scipy = importlib.util.find_spec("scipy")  # locates the package without importing it
_dir = os.path.join(_scipy.submodule_search_locations[0], "linalg") if _scipy else "<no scipy package>"
_paths = [os.path.join(_dir, "_flapack" + ext) for ext in importlib.machinery.EXTENSION_SUFFIXES]
_path = next((p for p in _paths if os.path.isfile(p)), None)
if _path is None:
    raise ImportError(f"scipy's LAPACK wrapper _flapack not found in {_dir}", name=_NAME)
_loader = importlib.machinery.ExtensionFileLoader(_NAME, _path)
_flapack = importlib.util.module_from_spec(importlib.util.spec_from_file_location(_NAME, _path, loader=_loader))
_loader.exec_module(_flapack)

dgbsv, dgbtrf, dgbtrs, dposv = _flapack.dgbsv, _flapack.dgbtrf, _flapack.dgbtrs, _flapack.dposv
