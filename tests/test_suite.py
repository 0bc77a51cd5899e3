"""The test suite's own configuration."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
# the only modules that know the per-row word view Instance.constraints: its
# definition, its own tests and the tests' one row builder
ROW_VIEW_READERS = {"src/hkxor/instances.py", "tests/test_instances.py", "tests/helpers.py"}


def test_a_failing_property_test_reports_its_example(tmp_path):
    # under filterwarnings = error, hypothesis's report used to end the session in an
    # INTERNALERROR (a DeprecationWarning from mypy_extensions) without the example
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                          str(tmp_path / "test_fails.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout


def test_only_the_instance_module_and_its_tests_read_the_row_view():
    # library paths and tests read an instance through its columns (sites, letters,
    # coeffs); an attribute named `constraints` anywhere else is a read of the view
    modules = [*sorted((ROOT / "src" / "hkxor").glob("*.py")),
               *sorted((ROOT / "tests").glob("*.py"))]
    assert len(modules) > 15
    reads = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in modules if path.relative_to(ROOT).as_posix() not in ROW_VIEW_READERS
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "constraints"]
    assert reads == []


def test_no_library_module_imports_another_modules_private_names():
    # a name with a leading underscore belongs to its module; another hkxor module that
    # needs it asks for a public name (dunders such as __version__ are public)
    imports = []
    for path in sorted((ROOT / "src" / "hkxor").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "hkxor"
                                                     or node.module.startswith("hkxor.")):
                imports += [f"{path.relative_to(ROOT).as_posix()}:{node.lineno} {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert imports == []


def test_only_the_oracle_imports_numpy_or_scipy_internals():
    # scipy's private sparse kernels (scipy.sparse._sparsetools) have one owner,
    # oracle.py; any other module asks it for a public function
    imports = []
    for path in sorted((ROOT / "src" / "hkxor").glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imports += [f"{path.relative_to(ROOT).as_posix()}:{node.lineno} {module}"
                        for module in modules
                        if module.split(".")[0] in ("numpy", "scipy")
                        and any(part.startswith("_") for part in module.split("."))]
    assert imports == []
