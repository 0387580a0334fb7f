"""Build hook for the optional compiled CSR kernels.

The package is pure python by default; this extension is the
``compiled`` backend of :mod:`repro.linalg.kernels`.  It is marked
``optional`` so a missing compiler degrades to the pure-numpy
reference backend instead of failing the install.

Build in place for development:

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

try:
    import numpy
except ImportError:  # pragma: no cover - numpy is a hard runtime dep
    numpy = None

ext_modules = []
if numpy is not None:
    csr_kernels = Extension(
        "repro.linalg._csr_kernels",
        sources=["src/repro/linalg/_csr_kernels.c"],
        include_dirs=[numpy.get_include()],
        # -O3 but NOT -ffast-math: the bitwise contract with the numpy
        # reference forbids reassociation of the accumulation order.
        # -ffp-contract=off: the reference rounds every product before
        # adding it, so ``acc += a * b`` must not become an FMA (GCC
        # contracts by default once CFLAGS enable FMA, e.g. -march=native).
        extra_compile_args=["-O3", "-ffp-contract=off"],
        optional=True,
    )
    ext_modules.append(csr_kernels)

setup(ext_modules=ext_modules)
