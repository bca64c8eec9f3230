"""The package's top-level names, its SciPy-free modules, its one fork and reap
site, the flags of each command, the presets and README examples that use them."""

import argparse
import ast
import inspect
import re
import shlex
import subprocess
import sys
from pathlib import Path

import fracsg
from fracsg.cli import OPTIONS, build_parser, main, resolve
from fracsg.presets import PRESETS
from fracsg.problems import get_problem

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


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
    # SciPy is a test dependency only, so no module of the package, _dense included, imports it
    offenders = []
    for path in sorted(Path(fracsg.__file__).parent.glob("*.py")):
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


def test_one_fork_and_one_waitpid_call_site():
    # every child process is forked, and reaped, in one place: cli._Children
    sites = {"fork": [], "waitpid": []}
    for path in sorted(Path(fracsg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "os" and node.func.attr in sites):
                sites[node.func.attr].append(f"{path.name}:{node.lineno}")
    assert [len(calls) for calls in sites.values()] == [1, 1], sites


def test_only_cli_scheme_config_builds_scheme_configs():
    # settings become a discretisation in one place; everything else refines
    # a SchemeConfig with dataclasses.replace
    offenders = []
    for path in sorted(Path(fracsg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = [top for top in tree.body if path.name == "cli.py"
                 and isinstance(top, ast.FunctionDef) and top.name == "_scheme_config"]
        allowed = {id(node) for top in owner for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("subdivisions", "SchemeConfig"):
                    offenders.append(f"{path.name}:{node.lineno} calls {name}")
    assert offenders == []


def readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.DOTALL)


def readme_commands():
    return [shlex.split(line)[1:] for block in readme_blocks("sh")
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("fracsg ")]


def test_readme_commands_resolve(tmp_path, monkeypatch):
    # every fracsg command of the README parses and resolves to a full set of
    # settings (bench's is empty); nothing runs and nothing is written
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        assert isinstance(resolve(build_parser().parse_args(argv)), dict), argv
    assert list(tmp_path.iterdir()) == []


def test_resolve_returns_exactly_the_subcommands_settings():
    # no value rides along that no flag or preset sets
    presets = [[command, "--preset", name] + (["--alpha", "1.5"] if command == "run" else [])
               for command, names in PRESETS.items() for name in names]
    hump = ["run", "--example", "5.2", "--alpha", "1.5", "--domain", "-20", "20", "--h", "0.5",
            "--tau", "0.1", "--T", "1"]
    resolved = {}
    for argv in readme_commands() + [a + ["--out", "x"] for a in presets + [hump]]:
        settings = resolve(build_parser().parse_args(argv))
        assert set(settings) == {o.name for o in OPTIONS if argv[0] in o.commands}, argv
        resolved[" ".join(argv[:3])] = settings
    assert resolved["bench --out out/bench"] == {}
    assert resolved["run --preset soliton1"]["omega"] == 1.0
    assert resolved["run --preset soliton2"]["omega"] is None
    assert resolved["run --example 5.2"]["omega"] is None


def flags_of_each_parser():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {flag for a in p._actions for flag in a.option_strings}
            for name, p in {"fracsg": parser, **commands}.items()}


def test_each_parser_takes_exactly_its_flags():
    # a new setting is a deliberate edit here, not a side effect of OPTIONS
    sim = {"-h", "--help", "--preset", "--example", "--domain", "--T", "--out"}
    assert flags_of_each_parser() == {
        "fracsg": {"-h", "--help", "--version"},
        "run": sim | {"--alpha", "--omega", "--h", "--tau"},
        "convergence": sim | {"--alphas", "--h", "--tau"},
        "energy": sim | {"--alphas", "--h", "--tau"},
        "bench": {"-h", "--help", "--out"},
    }


def test_every_setting_flag_is_set_by_a_preset_or_readme_command():
    # a flag that no preset and no documented command sets is a knob to remove
    used = {(argv[0], name) for argv in readme_commands()
            for name, value in vars(build_parser().parse_args(argv)).items() if value is not None}
    used |= {(command, name) for command, presets in PRESETS.items()
             for preset in presets.values() for name in preset.settings()}
    unused = [f"{command} --{opt.name.replace('_', '-')}" for opt in OPTIONS
              for command in opt.commands if (command, opt.name) not in used]
    assert unused == []


def test_presets_set_only_settings_of_their_subcommand():
    # a preset value its subcommand has no setting for would be ignored without a word
    for command, presets in PRESETS.items():
        settings = {o.name for o in OPTIONS if command in o.commands}
        for name, preset in presets.items():
            assert set(preset.settings()) <= settings, (command, name)


def test_readme_names_only_real_flags():
    flags = set().union(*flags_of_each_parser().values())
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    named = re.findall(r"--[\w-]+", " ".join(re.findall(r"`([^`]+)`", prose)
                                            + [" ".join(argv) for argv in readme_commands()]))
    assert len(named) >= 20
    assert sorted(set(named) - flags) == []


def test_omega_default_is_stated_as_get_problem_sets_it(capsys):
    omega = f"{get_problem('5.1').omega:g}"
    assert main(["run", "--help"]) == 0
    assert f"(default {omega})" in " ".join(capsys.readouterr().out.split())
    readme = " ".join(README.read_text().split())
    assert f"apart from `run`'s `--omega`, which example 5.1 then takes as its own {omega}." \
        in readme


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
    assert namespace["recorder"].max_relative_drift() <= 1e-8


def test_failing_property_test_is_reported_and_the_suite_goes_on(tmp_path):
    # hypothesis's report hook imports libcst, whose import warns; under the
    # config's filterwarnings = error that warning must not abort the session
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q",
         "test_pair.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
