"""The package's top-level names, and the README example that uses them."""

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
        "SolveConfig", "SolveFailure", "cn_step", "convergence_ladder",
        "discrete_energy", "generate_kernel", "get_problem", "initial_state", "run",
        "startup_step",
    }


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
    assert namespace["recorder"].max_relative_drift() <= 1e-8
