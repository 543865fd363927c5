from setuptools import setup

# didom._kernels, the C kernels; the package falls back to the pure-Python
# kernels wherever it is not built
setup(cffi_modules=["src/didom/_kernels_build.py:ffibuilder"])
