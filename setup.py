"""Legacy setup shim so editable installs work without the wheel package."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "JECB: join-extension, code-based OLTP data partitioning "
        "(SIGMOD 2014 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
