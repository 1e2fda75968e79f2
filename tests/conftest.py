"""Shared fixtures."""

import dataclasses
import os
from pathlib import Path

import pytest

import betaquad


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports the same betaquad
    as this test run, whether or not the package is installed."""
    src = str(Path(betaquad.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def with_margin():
    """``with_margin(rec, margin)``: the catalog record ``rec`` with another
    sampling margin."""
    def replace(rec, margin):
        return dataclasses.replace(rec, domain=dataclasses.replace(rec.domain, margin=margin))

    return replace
