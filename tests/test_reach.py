"""Every function and method in `src/sparsepanel` is reached by some command.

The commands run in-process on tiny inputs under `sys.setprofile`, which
records the code object of each Python function called. A function of the
package that none of them calls is dead code, unless it is on ALLOWED with
the reason it stays.
"""

import importlib
import inspect
import json
import pkgutil
import sys

import sparsepanel
from sparsepanel import cli, forecast, m1, m2, mc

# {qualified name: why it stays although no command calls it}
ALLOWED = {
    "chainout._json_default": "writes numpy values a manifest may come to hold; safety code",
    "forecast.score": "the log predictive score of criterion 8 and the golden forecast digest",
    "forecast.PredictiveDraws.interval": "the interval widths of criterion 8",
    "forecast.PredictiveDraws.predictive_mean": "the point forecast that `score` scores",
    "forecast.PredictiveDraws.n_units": "the unit count that `score` checks",
    "mc.RiskTable.risk": "the risk lookup of the acceptance tests",
    "mc.RiskTable.stderr": "the standard-error lookup of the acceptance tests",
}


def _package_functions():
    """{code object: qualified name} of every top-level function and every
    method of a top-level class written in a module of the package."""
    found = {}
    for info in pkgutil.iter_modules(sparsepanel.__path__):
        module = importlib.import_module(f"sparsepanel.{info.name}")

        def add(obj, name):
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            if isinstance(obj, property):
                obj = obj.fget
            if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
                found[obj.__code__] = f"{info.name}.{name}"

        for name, obj in vars(module).items():
            add(obj, name)
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    add(member, f"{name}.{attr}")
    return found


def _run_every_command(tmp_path):
    def run(*argv, config=None):
        if config is not None:
            path = tmp_path / f"config{len(list(tmp_path.glob('config*')))}.json"
            path.write_text(json.dumps(config))
            argv += ("--config", str(path))
        assert cli.main(list(argv)) == 0, argv

    m1_panel, m2_panel = tmp_path / "s1" / "panel.csv", tmp_path / "s2" / "panel.csv"
    run("simulate", "--model", "m1", "--n", "6", "--t", "4", "--out", str(tmp_path / "s1"),
        config={"heteroskedastic": True, "theta": {"rho": 0.5}})
    run("simulate", "--model", "m2", "--n", "4", "--t", "4", "--out", str(tmp_path / "s2"))
    run("decompose", "--out", str(tmp_path / "d"),
        config={"cohort_size": 20, "cohort_periods": 3, "theta": {"rho": 0.6}})
    for model, panel, variants in (("m1", m1_panel, m1.VARIANTS), ("m2", m2_panel, m2.VARIANTS)):
        for variant in variants:
            run("estimate", "--model", model, "--variant", variant, "--data", str(panel),
                "--draws", "6", "--burnin", "2", "--thin", "2", "--out", str(tmp_path / "e"))
    for scenario in forecast.SCENARIOS:
        run("forecast", "--model", "m2", "--data", str(m2_panel), "--draws", "6", "--burnin",
            "2", "--scenario", scenario, "--horizons", "1,2", "--out", str(tmp_path / "f"))
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"model": "m1_hetsk", "n": 4, "t": 3, "n_sim": 2,
                                  "q_grid": [0.4], "v_delta_alpha_grid": [0.5],
                                  "estimators": list(mc.ESTIMATORS)}))
    run("montecarlo", "--design", str(design), "--draws", "4", "--burnin", "2", "--threads", "1",
        "--out", str(tmp_path / "mc"))


def test_every_function_is_reached_by_a_command(tmp_path, capsys):
    functions = _package_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run_every_command(tmp_path)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    unreached = sorted(name for code, name in functions.items() if code not in called)
    dead = [name for name in unreached if name not in ALLOWED]
    assert not dead, f"no command reaches {dead}: wire them in or delete them"
    reached = sorted(set(ALLOWED) - set(unreached))
    assert not reached, f"a command now reaches {reached}: take them off ALLOWED"
