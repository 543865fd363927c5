import importlib.util
import shutil
import sysconfig
from collections import Counter

import pytest

from didom import kernels, solvers, verify
from didom.core import build_digraph


@pytest.fixture(scope="session")
def c_compiler():
    """The C compiler that builds extensions for this Python."""
    compiler = (sysconfig.get_config_var("CC") or "gcc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler: {compiler} not found")
    return compiler


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory, c_compiler):
    """The compiled kernels, built from source by the cffi builder that
    setup.py uses into a temporary directory (never into src/), and wrapped
    as ``kernels._compiled`` wraps an installed build."""
    pytest.importorskip("cffi", reason="cffi is not installed")
    from didom._kernels_build import ffibuilder

    built = ffibuilder.compile(tmpdir=str(tmp_path_factory.mktemp("kernels")))
    spec = importlib.util.spec_from_file_location("didom._kernels", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return kernels.CompiledKernels(module)


@pytest.fixture(params=["pure", "compiled"])
def backend(request, monkeypatch):
    """The name of the backend that solves every kernel call of the test:
    "pure", or "compiled" as the ``compiled_kernels`` fixture builds it.
    A test runs on both unless it parametrizes ``backend`` indirectly."""
    compiled = None
    if request.param == "compiled":
        compiled = request.getfixturevalue("compiled_kernels")
        monkeypatch.setattr(kernels, "_FORCE_PURE", False)
    monkeypatch.setattr(kernels, "_compiled", compiled)
    return request.param


@pytest.fixture
def exact_packing_solves(monkeypatch):
    """A Counter of the packing solves that the root of
    ``solvers.packing_against`` leaves to the independent-set kernel, under
    "closed" and "open"; the kernel calls of ``all_maximum_packings`` are
    not counted."""
    calls = Counter()
    against, solve = solvers.packing_against, kernels.max_independent_set
    kinds = []  # the kind of each packing_against call in progress

    def counted_against(d, gamma, *, closed=True, **kwargs):
        kinds.append("closed" if closed else "open")
        try:
            return against(d, gamma, closed=closed, **kwargs)
        finally:
            kinds.pop()

    def counted_solve(*args):
        if kinds:
            calls[kinds[-1]] += 1
        return solve(*args)

    monkeypatch.setattr(solvers, "packing_against", counted_against)
    monkeypatch.setattr(verify, "packing_against", counted_against)
    monkeypatch.setattr(kernels, "max_independent_set", counted_solve)
    return calls


@pytest.fixture
def directed_triangle():
    # strongly connected orientation of K3: a -> b -> c -> a
    return build_digraph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def chorded_5cycle():
    # oriented 5-cycle u v x y z plus the chord z -> x
    return build_digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 2)])


@pytest.fixture
def bidirected_p4():
    return build_digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
