"""Package import layout: lazy public names, BLAS thread pinning by the CLI, and no scipy.

Each check runs in a fresh interpreter, because what it looks at (which
modules are loaded, the environment numpy's BLAS starts from) is settled
by the first imports of a process.
"""

import json
import os
import subprocess
import sys

import gbs_page

SRC = os.path.dirname(os.path.dirname(gbs_page.__file__))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS")

# dir(gbs_page) without the underscore names, as it was when the package
# imported its submodules eagerly.
PUBLIC_DIR = [
    "ASYMPTOTIC", "ExperimentPlan", "PageCurveValue", "SampleFailure", "SampleRecord",
    "Summary", "entropy", "equal_squeezing_spectrum", "estimate_Vd", "haar", "haar_frame",
    "jacobi_transmissions", "montecarlo", "page_average", "page_limit", "pagecurve",
    "reduced_covariance_general", "renyi_entropy", "renyi_mode_entropy",
    "renyi_unequal_small", "run_experiment", "s2_variance_identity", "sample_generator",
    "states", "symplectic", "symplectic_eigenvalues", "variance_trend",
]


def run_python(code, **env_overrides):
    """Run ``code`` in a new interpreter with none of the BLAS variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(PYTHONPATH=SRC, **env_overrides)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, timeout=60, env=env)
    return json.loads(result.stdout)


def test_import_leaves_out_numpy():
    assert run_python("import json, sys, gbs_page\n"
                      "print(json.dumps('numpy' in sys.modules))") is False


def test_public_names_unchanged():
    code = """\
import json, gbs_page
names = {}
exec("from gbs_page import *", names)
del names["__builtins__"]
same = all(value is getattr(getattr(gbs_page, module), name)
           for module, exported in gbs_page._EXPORTS.items() for name in exported
           for value in [names[name]])
print(json.dumps({"all": gbs_page.__all__, "star": sorted(names), "same": same,
                  "dir": [n for n in dir(gbs_page) if not n.startswith("_")]}))
"""
    out = run_python(code)
    assert out["star"] == sorted(out["all"]) == sorted(gbs_page.__all__)
    assert len(out["all"]) == 21 and out["same"]
    assert out["dir"] == PUBLIC_DIR
    # here, where other tests have imported more (gbs_page.cli), too
    assert gbs_page.page_average is gbs_page.pagecurve.page_average
    assert set(PUBLIC_DIR) <= set(dir(gbs_page))


def test_unknown_attribute_raises():
    out = run_python("""\
import json, gbs_page
try:
    gbs_page.TruncationCapError
    raised = False
except AttributeError:
    raised = True
print(json.dumps([raised, getattr(gbs_page, "TruncationCapError", None)]))
""")
    assert out == [True, None]


def test_cli_pins_blas_threads():
    out = run_python("import json, os, sys, gbs_page.cli\n"
                     f"print(json.dumps([{{v: os.environ.get(v) for v in {BLAS_VARS!r}}},\n"
                     "                  'numpy' in sys.modules]))")
    assert out == [dict.fromkeys(BLAS_VARS, "1"), True]


def test_cli_keeps_a_user_blas_setting():
    out = run_python("import json, os, gbs_page.cli\n"
                     f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))",
                     OPENBLAS_NUM_THREADS="3")
    assert out == {**dict.fromkeys(BLAS_VARS), "OPENBLAS_NUM_THREADS": "3"}


def test_cli_after_numpy_leaves_environment_alone():
    out = run_python("import json, os, numpy\n"
                     "before = dict(os.environ)\n"
                     "import gbs_page.cli\n"
                     "print(json.dumps(dict(os.environ) == before))")
    assert out is True


def test_per_mode_simulate_leaves_out_scipy(tmp_path):
    # scipy is a test-only dependency; a lazy import on the per-mode sampling
    # path (the frame, the covariance, the paired eigensolve) would only
    # show once a sample runs. k > n/2 takes the smaller side of the cut.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 9, "k": 6, "s": [0.1 * i for i in range(9)],
                                  "alphas": [1, 2], "samples": 3, "seed": 1, "threads": 2,
                                  "out_prefix": str(tmp_path / "run")}))
    out = run_python("import json, sys, gbs_page.cli\n"
                     f"code = gbs_page.cli.main(['simulate', '--config', {str(config)!r}])\n"
                     "print(json.dumps([code, 'scipy' in sys.modules]))")
    assert out == [0, False]
    assert (tmp_path / "run_samples.csv").read_text().count("\n") == 1 + 3 * 2
