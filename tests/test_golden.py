"""Golden outputs: the sha256 of both CSVs of one small CLI run per
environment kind and policy. A change that alters any number, its
formatting or the address of a random draw changes a digest; update the
table only when the output contract changes on purpose."""

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
        "3448b830b5f085373b3131dd9cafe7f126a211bdcbb245b9ed8aef73dff0d0e2",
        "7165f043d88fd7e509b16d4a47ac966012396900841a36016a127911582a9943"),
    ("bernoulli_chain", "random"): (
        "b76d53ddeb235cf276fb7c9a5c570d47e6f5771896ac014d8fed778cfdc0827d",
        "5cf3f4aed36c8f009c4e3946f41564560dec8c22a00e6749f0bea385b14f9167"),
    ("bernoulli_chain", "ucb_baseline"): (
        "71088efd8face32e5692919b5224ee9abc02983e5c52aaae39599c27e32ecab9",
        "b5a56ff4053a39a835268763cf0b8ca1e5f10c48f3cb81f46359d438267abfaa"),
    ("gem_mining", "eps_mats"): (
        "03ed869638f30cbaf9055efd7236feffdd945fc86e937614719f1aa53b5a59ff",
        "229e763dd64aa4e52a1d91a246ffb08104264b6b8811f218372836e0690ced5b"),
    ("gem_mining", "random"): (
        "c48ce94dbf5ebaa52425cbee246015eaf08aed9e38bff7e316b9cfb1d3b04a02",
        "7e6c27752c11b6bfa25a1e60646e811af49bd8bd7709ab66ddfcb9d0418f3b5b"),
    ("gem_mining", "ucb_baseline"): (
        "161bd1f166bf3fc6d55f5fa09d0213b8c656b31f9e5a44f73bc3b68e0d69aca4",
        "e556cce22f496514b1e955e9ff67bfdcee199112a6bdff27b30df2bae69d692e"),
    ("lower_bound", "eps_mats"): (
        "01d2976dd83673fa691fe2b2229f98205c283b3fa3f0f059b44a7db8e22c61e6",
        "5032a0f7faafd31e62251346b2e1f27155081155515ec1f9f1cd9d512dcc1b6d"),
    ("lower_bound", "random"): (
        "bbdb5493915a408dff8bb079bd364e34296b9e8179d05be05135fe8607085e7c",
        "ee7ad5afc5aa3cbe97b27c1b4f45b5793cb6f796389b4d39adbfd3fbc6da5845"),
    ("lower_bound", "ucb_baseline"): (
        "62dba9ab0c03d693c7e49ad10325b738a0445ac1e9a3a10206fae3a86aa9b1cb",
        "d683b4f3efd29942e5737a786feae2e453c680ca62b6c8d462220472b2eea1f3"),
    ("poisson_chain", "eps_mats"): (
        "2fcc8f01714f9d035d24e10796d40adbdd6b070a63892745bcf13d318cdce2b8",
        "1a29085c3bfb95974f206435b19f9ff7ee0efe9d319908315e27bbaba095ae5d"),
    ("poisson_chain", "random"): (
        "98f2241acad4c1ed7afe24267a0fb759e5c7c52bd71ca30c123662f20f2b7efe",
        "b28876f9ade0be50a16ba204a44763d5897b5c5555318c156ee2f57517dbe588"),
    ("poisson_chain", "ucb_baseline"): (
        "f307f5da693c4a633602efc4fc0b39f8d35e767017254d4261f471f90242a040",
        "cba78a1c5d5d36804b11d5dd8d08f6e177ec2543f0161afd1c5b269260c44900"),
    ("table", "eps_mats"): (
        "a0c40dcb681ba28fd976c944acce7c9f88a3d65f4c3051c24239d7e2aed06a0c",
        "98bdd852bfbbbd52d2a59a797a5118a1ada8b5f3871b4557496566d0acd14ac1"),
    ("table", "random"): (
        "ee5063e871df298f1ead87ddffeafa90917a271e83fa30b5e2992fecbaec8ce7",
        "da8174588a41683fe2998a65f833f1a91ada981cbb6be58ab18367e8cff19167"),
    ("table", "ucb_baseline"): (
        "421909762b309f0dcc2c2f6cc2adb47a4da2e7baa17e454217898cbaf55062b8",
        "3abfffab4f36c550824ed2af46627f45cd3e6c17edf9fd01568041c06fd60375"),
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
