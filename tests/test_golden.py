"""Golden-bytes check: every CLI task reproduces its pinned output exactly.

Each toy config below runs one `scaffold-sim` task end to end; the
SHA-256 of every file it writes must equal the recorded digest.  The
digests were recorded from the code before the per-step hot path was
rewritten, so a change that moves any output byte (a reordered sum, a
different sigmoid branch, a changed RNG draw) fails here.

To re-record after an intended output change, run this file as a script:
`PYTHONPATH=src python tests/test_golden.py` prints the new table.
"""

import hashlib

import pytest

from scaffold_sim.cli import main as cli_main

_PROBLEM_LOGISTIC = """\
[problem]
loss = logistic
n_features = 5
records_per_client = 20
informative = 2,4
"""

_PROBLEM_QUADRATIC = """\
[problem]
loss = quadratic
l2_weight = 0.5
n_features = 5
records_per_client = 20
informative = 2,4
noise_std = 2
"""

CONFIGS = {
    "figure1": _PROBLEM_LOGISTIC + """\
[run]
local_steps = 5
rounds = 6
batch_size = 4
n_clients = 2,6
seeds = 0,1
""",
    "speedup": _PROBLEM_QUADRATIC + """\
[run]
gamma_over_L = 0.125
local_steps = 4
batch_size = 5
n_clients = 2,4
seeds = 3
burn_in = 10
n_samples = 120
""",
    "coupling": _PROBLEM_LOGISTIC + """\
[run]
gamma_over_L = 0.1
local_steps = 4
rounds = 8
batch_size = 3
n_clients = 4
seeds = 0,1
""",
    # N = 12 has 66 off-diagonal pairs, so the xi-pair subset is truncated
    "stationary": _PROBLEM_LOGISTIC + """\
[run]
gamma_over_L = 0.1
local_steps = 3
batch_size = 4
n_clients = 12
seeds = 5
burn_in = 5
n_samples = 100
thinning = 2
""",
    "predict": _PROBLEM_LOGISTIC + """\
[run]
gamma_over_L = 0.1
local_steps = 7
n_clients = 6
""",
    "complexity": _PROBLEM_LOGISTIC + """\
[run]
n_clients = 2,4,8
epsilon = 0.05
""",
}

# A speedup run with default burn-ins (88, 99 and 146 rounds for N = 2, 4
# and 8), so the client counts' chains start at different iterations.
STAGGERED_SPEEDUP = _PROBLEM_QUADRATIC + """\
[run]
gamma_over_L = 0.125
local_steps = 4
batch_size = 5
n_clients = 2,4,8
seeds = 3
n_samples = 100
thinning = 2
"""

# The quadratic predict path: the X'X/n Hessian branch and the zero third
# derivative, which the logistic `predict` config never reaches.
QUADRATIC_PREDICT = _PROBLEM_QUADRATIC + """\
[run]
gamma_over_L = 0.1
local_steps = 3
batch_size = 4
n_clients = 6
"""

# The predict path with a fixed gamma: no scalar constant of the
# certificate is read, so none is computed.
FIXED_GAMMA_PREDICT = _PROBLEM_LOGISTIC + """\
[run]
gamma = 0.05
local_steps = 7
n_clients = 6
"""

# The figure1 path that derives gamma from L: the only figure1 set-up that
# builds a certificate.
FIGURE1_GAMMA_OVER_L = _PROBLEM_LOGISTIC + """\
[run]
gamma_over_L = 0.125
local_steps = 5
rounds = 6
batch_size = 4
n_clients = 2,6
seeds = 0,1
"""

# SHA-256 of each output file, keyed by task and file name.
DIGESTS = {
    "complexity": {
        "complexity.csv": "27c2391eb83ff5b65b89001a3d60e5f02777938fcc5f3c8378c21a4dfc17a15e"},
    "coupling": {
        "coupling.csv": "9c38f5dd2d05109bb68dfd0979f1c05d777a26948f119198083f40ebe82f2ac2"},
    "figure1": {
        "figure1.csv": "db586e8fa8b622a540cc993ffa79607bd72b97c050f73ad10286264a1852e289",
        "figure1.agg.csv": "80fd93f825106a08accfaa3a35955298bd612fa154f0d29c0399e47ea0ac4106"},
    "predict": {
        "predict.csv": "06bf00a13fa0c735333efddd2b61e989185809a7cda67ad67e56ef55b1afbca3"},
    "speedup": {
        "speedup.csv": "23ac41d980c7af4b7e7856d57d47bd074eb1b575255f9a679ed6fc2fc007f36a"},
    "stationary": {
        "stationary.csv": "5058e34d3f5da47cd58bc41efc79f335dca90a38b038d4fe1c4bfafb4bb17bbf"},
}
# Recorded from the code that ran each client count's chain separately.
STAGGERED_SPEEDUP_DIGEST = "4e66e2de1f1a4825cf38ff3aadee5361da23aec5e8a404a5aca8d01836f6b8ff"
# Recorded from the code that looped over clients for every derivative.
QUADRATIC_PREDICT_DIGEST = "7a2a49f424c5f567e1812fcb3114fcfc25556d76cc508b4c1570d45f35c0796b"
# Recorded from the code that computed every certificate constant eagerly.
FIXED_GAMMA_PREDICT_DIGEST = "e95e2a29ba47f7d09fad68779c8c86e2a3b6f0d49a5f7c99133c3a64ebf99151"
# Recorded from the code that built a certificate for every figure1 client count.
FIGURE1_GAMMA_OVER_L_DIGESTS = {
    "figure1.csv": "02ae62a3e60e6564efd6d84a50485d3dc18779d356c112847b07044cab1e14fb",
    "figure1.agg.csv": "330da51eb24b9f3ab8c0dd56d5521d2e9dafd3ab42984749a26ae91770943b06"}


def _outputs(task, directory, body=None):
    config = directory / f"{task}.txt"
    config.write_text(f"[experiment]\ntask = {task}\n" + (CONFIGS[task] if body is None else body))
    out = directory / f"{task}.csv"
    assert cli_main([task, "--config", str(config), "--out", str(out)]) == 0
    names = [out.name]
    if task == "figure1":
        names.append(f"{task}.agg.csv")
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("task", sorted(CONFIGS))
def test_output_bytes_match_golden(task, tmp_path):
    assert _outputs(task, tmp_path) == DIGESTS[task]


def test_staggered_speedup_bytes_match_golden(tmp_path):
    got = _outputs("speedup", tmp_path, STAGGERED_SPEEDUP)
    assert got == {"speedup.csv": STAGGERED_SPEEDUP_DIGEST}


def test_quadratic_predict_bytes_match_golden(tmp_path):
    got = _outputs("predict", tmp_path, QUADRATIC_PREDICT)
    assert got == {"predict.csv": QUADRATIC_PREDICT_DIGEST}


def test_fixed_gamma_predict_bytes_match_golden(tmp_path):
    got = _outputs("predict", tmp_path, FIXED_GAMMA_PREDICT)
    assert got == {"predict.csv": FIXED_GAMMA_PREDICT_DIGEST}


def test_figure1_gamma_over_l_bytes_match_golden(tmp_path):
    got = _outputs("figure1", tmp_path, FIGURE1_GAMMA_OVER_L)
    assert got == FIGURE1_GAMMA_OVER_L_DIGESTS


if __name__ == "__main__":
    import pathlib
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint({task: _outputs(task, pathlib.Path(tmp)) for task in sorted(CONFIGS)})
        print("staggered speedup:", _outputs("speedup", pathlib.Path(tmp), STAGGERED_SPEEDUP))
        print("quadratic predict:", _outputs("predict", pathlib.Path(tmp), QUADRATIC_PREDICT))
        print("fixed-gamma predict:",
              _outputs("predict", pathlib.Path(tmp), FIXED_GAMMA_PREDICT))
        print("figure1 gamma_over_L:",
              _outputs("figure1", pathlib.Path(tmp), FIGURE1_GAMMA_OVER_L))
