"""Build script for the optional C counting kernel.

The kernel is compiled from the committed ``fast.c``, Cython's output for
``fast.pyx``; after editing the ``.pyx``, regenerate it with
``cython -3 src/jrp_forge/_kernels/fast.pyx``. The extension is optional, so
a missing or failing C compiler only prints a warning and the package
installs with its pure-Python fallback.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "jrp_forge._kernels.fast",
            ["src/jrp_forge/_kernels/fast.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
