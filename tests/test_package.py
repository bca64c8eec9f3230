"""The package's top-level names, its SciPy-free production modules, the
flags of each command, the presets and README examples that use them."""

import argparse
import ast
import inspect
import re
import shlex
from pathlib import Path

import fracsg
from fracsg.cli import OPTIONS, build_parser, resolve
from fracsg.presets import DEFAULTS, PRESETS

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
    # settings; nothing runs and nothing is written
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        assert resolve(build_parser().parse_args(argv)), argv
    assert list(tmp_path.iterdir()) == []


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
        "convergence": sim | {"--alphas", "--base-h", "--base-tau"},
        "energy": sim | {"--alphas", "--h", "--tau"},
        "bench": {"-h", "--help", "--out"},
    }


def test_every_setting_flag_is_set_by_a_preset_or_readme_command():
    # a flag that no preset and no documented command sets is a knob to remove
    used = {(argv[0], name) for argv in readme_commands()
            for name, value in vars(build_parser().parse_args(argv)).items() if value is not None}
    used |= {(command, name) for command, presets in PRESETS.items()
             for preset in presets.values() for name in preset.settings()}
    unused = [f"{command} --{opt.name.replace('_', '-')}" for opt in OPTIONS if opt.conv
              for command in opt.commands if (command, opt.name) not in used]
    assert unused == []


def test_presets_set_only_settings_of_their_subcommand():
    # a preset value its subcommand has no setting for would be ignored without a word
    for command, presets in PRESETS.items():
        settings = {o.name for o in OPTIONS if command in o.commands and o.conv}
        settings |= set(DEFAULTS[command])
        for name, preset in presets.items():
            assert set(preset.settings()) <= settings, (command, name)


def test_readme_names_only_real_flags():
    flags = set().union(*flags_of_each_parser().values())
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    named = re.findall(r"--[\w-]+", " ".join(re.findall(r"`([^`]+)`", prose)
                                            + [" ".join(argv) for argv in readme_commands()]))
    assert len(named) >= 20
    assert sorted(set(named) - flags) == []


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
    assert namespace["recorder"].max_relative_drift() <= 1e-8
