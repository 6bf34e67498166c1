"""Print the numeric stack of a measured process as one JSON line:
numpy and scipy versions and the OpenBLAS thread count in effect."""

import ctypes
import glob
import json
import os

import numpy
import scipy


def openblas_threads() -> int | None:
    libs = os.path.dirname(numpy.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                      "openblas_threads": openblas_threads()}))
