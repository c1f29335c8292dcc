"""Build script: compiles the Hamilton-search kernel.  With Cython it is
built from ``_fast.pyx``; without Cython, from the shipped ``_fast.c``,
which was generated from that ``.pyx`` (whose sha256 is recorded in
``_fast.pyx.sha256`` and checked by the tests).  The package works without
the extension (a pure Python fallback is selected at import time), so the
extension is optional and a failed build is not fatal.
"""

from setuptools import Extension, setup

KERNEL = "src/bipham/hamkernel/_fast"


def kernel_extension(source: str) -> Extension:
    return Extension(
        "bipham.hamkernel._fast",
        sources=[source],
        extra_compile_args=["-O2"],
        optional=True,
    )


try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [kernel_extension(KERNEL + ".c")]
else:
    ext_modules = cythonize(
        [kernel_extension(KERNEL + ".pyx")],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules)
