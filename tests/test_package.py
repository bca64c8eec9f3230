"""The package's top-level names, its SciPy-free production modules, and the
README example that uses them."""

import ast
import inspect
import re
from pathlib import Path

import fracsg

README = Path(__file__).resolve().parents[1] / "README.md"


def test_top_level_names():
    names = {name for name, value in vars(fracsg).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == {
        "EnergyRecorder", "FracOperator", "GridSpec", "NumericalFailure", "SchemeConfig",
        "SolveFailure", "cn_step", "convergence_ladder",
        "discrete_energy", "generate_kernel", "get_problem", "initial_state", "run",
        "startup_step",
    }


def test_production_modules_import_no_scipy():
    # only _dense, the dense reference solve for bench and the tests, may
    offenders = []
    for path in sorted(Path(fracsg.__file__).parent.glob("*.py")):
        if path.name == "_dense.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
    assert namespace["recorder"].max_relative_drift() <= 1e-8
