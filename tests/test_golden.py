"""Golden outputs: the sha256 of both CSVs of one small CLI run per
environment kind and policy. A change that alters any number, its
formatting or the random draw order changes a digest; update the table
only when the output contract changes on purpose."""

import hashlib
from pathlib import Path

import pytest

from mamab.cli import main

TABLE_FILE = Path(__file__).resolve().parents[1] / "sample_configs" / "table_env_example.txt"

ENVS = {
    "bernoulli_chain": ["m=4", "d=2"],
    "poisson_chain": ["m=5", "d=3"],
    "gem_mining": ["villages=4", "env_seed=2"],
    "lower_bound": ["rho=2", "L=3"],
    "table": [f"table_file={TABLE_FILE}"],
}
POLICIES = {
    "eps_mats": ["epsilon=0.3"],
    "ucb_baseline": ["ucb_range=1.0"],
    "random": [],
}

# (env, policy) -> (trials.csv sha256, summary.csv sha256)
GOLDEN = {
    ("bernoulli_chain", "eps_mats"): (
        "cee2001ddc951f0c5eceae1deac513f8fe8f505bb8f0befa484dad67f248d911",
        "3e6be7719752b3d1e574087ff06060d8b50193d4032fa683e63ecca20e0fbcdf"),
    ("bernoulli_chain", "random"): (
        "3492a5bcd0e8e1be2e132d89c9a2739aec358dbb89daf62584ab80d0c927b286",
        "472ef015e64c908091ef08162efe05406f694f48315469ecb7c71092f5eca18b"),
    ("bernoulli_chain", "ucb_baseline"): (
        "63eb6d632b3e08b4b7222c9b13679ff6c60d60738bd9c8ec0287c2f6fb2924d1",
        "72e45197f7dab578f31e315a8831f51a4014f1da298ea24449601c8e98fc6ee2"),
    ("gem_mining", "eps_mats"): (
        "82029b7ca451af3693c1dab1d429a317d15c365e3dde5c0dd1f92a5711859ac6",
        "c76a5e9cd1006246c0d8d1f21986f8d2f5ae3c545453f5aa139a536873f30031"),
    ("gem_mining", "random"): (
        "edfa9a9323993f6f56c3fae7a5e05dde1b17230cbf4f5c2dac17d4e78a67f63b",
        "23cad02ea016b99755afd184f1bbe41f67c34101719992e178c3d17ff5ea95ec"),
    ("gem_mining", "ucb_baseline"): (
        "a974a9fbfdc20a90f1b1d8af287e287a430e02ed4f57db8fcaf8d32b9c4a89f3",
        "7ed1220f9ebd8c3bce0ff5022abf1ec54ebcc4df43108526826392f758b4bbc1"),
    ("lower_bound", "eps_mats"): (
        "bdeda5b5a8c496ae7da0e7213c14e8ac57120e8387f6e025529a721746bb9280",
        "2208e116e69e617c0db6742cd887c7971fd81e5c89acf14f54c327c1cc0b1577"),
    ("lower_bound", "random"): (
        "56108001a7bf4bb4438d649b3fef20eb002f257f7fa7e72bf0b992a726ade968",
        "43ac5713a2c8b91b56dc5e84efb5f2689b18bdc20cac392d0f583bb991d78c91"),
    ("lower_bound", "ucb_baseline"): (
        "62dba9ab0c03d693c7e49ad10325b738a0445ac1e9a3a10206fae3a86aa9b1cb",
        "d683b4f3efd29942e5737a786feae2e453c680ca62b6c8d462220472b2eea1f3"),
    ("poisson_chain", "eps_mats"): (
        "cae64ad2405701f0cb383ab96eb4ff69cdf5778aeef3330fdf9a1bed97921d37",
        "68279b7ef3dd751d195d9a1aa3c942184181fdb62e74bdfa8e4def82a3c12e9d"),
    ("poisson_chain", "random"): (
        "30efa37d42380f5935e08f301ff75334ede03ccdc028bf298c05c148674e7478",
        "fa217dee7c6d7e9daaf5253bf2603e83b3d78843c8e791bfe9787999b2423745"),
    ("poisson_chain", "ucb_baseline"): (
        "411393baf518b241d651742a33c5036b2d5de7b8f655b4c24514a9b89fe2ae0e",
        "706406c005b68d5cb2b2b6778daa9c31d3e1a68c774aa4396d06b07c673aed31"),
    ("table", "eps_mats"): (
        "5d1fc04b99d592f942a7d577df63fd6dc3acf69763474a966f9a1ed4dfb3d1cf",
        "b8588213b2a29d746e48f7d9b4fe9ab8bb3e22abaa949d1fee8ce58f6a41e677"),
    ("table", "random"): (
        "28b8e56eb85313e7caf0f4ad596b5fa8e4df33e8a81b47c3427c97eb332d2e17",
        "5af9ed2ef8f85bb87d9ba886eb5121b2068b6d03494c38f8907e37483cbe167d"),
    ("table", "ucb_baseline"): (
        "22f6e7b3d20f64a94ee3b8b5018783673e939ff38b2205b2ea81bda69e330506",
        "f0492301d9b25d2b71ebc202faa2f66085b715d4186191767f390d9992c9fce2"),
}


def _run(tmp_path, env, policy):
    sets = [f"env={env}", f"policy={policy}", "T=200", "trials=2", "seed=3"]
    sets += ENVS[env] + POLICIES[policy]
    out = str(tmp_path / f"{env}.{policy}")
    argv = ["run", "--out", out]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    return tuple(hashlib.sha256(Path(out + suffix).read_bytes()).hexdigest()
                 for suffix in (".trials.csv", ".summary.csv"))


@pytest.mark.parametrize("env", sorted(ENVS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_golden_csv_digests(tmp_path, env, policy):
    assert _run(tmp_path, env, policy) == GOLDEN[(env, policy)]
