"""cffi builder of ``didom._kernels`` from ``_bnb.c``: named by ``setup.py``
in ``cffi_modules``, and ``ffibuilder.compile(tmpdir=...)`` builds it anywhere.
``CDEF`` declares the two entry points, for any other build of the source."""

from pathlib import Path

from cffi import FFI

CDEF = """
    int didom_min_set_cover(const unsigned char *universe, const unsigned char *masks,
                            int n_sets, int ne, double deadline, unsigned char *out,
                            int64_t *nodes);
    int didom_max_independent_set(const unsigned char *adj, int n, double deadline,
                                  unsigned char *out, int64_t *nodes);
"""

ffibuilder = FFI()
ffibuilder.cdef(CDEF)
ffibuilder.set_source("didom._kernels", (Path(__file__).parent / "_bnb.c").read_text())
