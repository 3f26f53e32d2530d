"""The package's public names: ``__all__`` lists each once, and each resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import storagecodes
from storagecodes import cli, verification

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_lists_each_public_name_once_and_each_resolves():
    names = storagecodes.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(storagecodes, n)] == []


def test_importing_the_package_runs_none_of_its_modules(tmp_path):
    code = ("import sys, storagecodes\n"
            "print(sorted(k for k in sys.modules if k == 'numpy' or k.startswith('storagecodes.')))\n")
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_dir_lists_every_public_name():
    assert set(storagecodes.__all__) <= set(dir(storagecodes))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from storagecodes import *", namespace)
    assert {n: namespace.get(n) for n in storagecodes.__all__} == {
        n: getattr(storagecodes, n) for n in storagecodes.__all__
    }


def test_an_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'storagecodes' has no attribute 'no_such_name'"):
        storagecodes.no_such_name
    assert not hasattr(storagecodes, "no_such_name")


def test_the_cli_budget_choices_are_the_verification_budgets():
    # the parser lists them itself, so that building it loads no verification
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    budget = next(a for a in commands["verify-all"]._actions if a.dest == "budget")
    assert tuple(budget.choices) == verification.BUDGETS
