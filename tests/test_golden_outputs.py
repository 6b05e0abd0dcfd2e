"""Byte-identity gate: SHA-256 digests of normalized CLI outputs.

Every command the CLI offers runs in-process on a fixed set of inputs:
the Table 1 fixture, the three officer profiles generated by ``gen`` on
the five-tuple domain and on a small ``--domain``, and three members of
the worst-case family.  Each output, prefixed with its exit code, is
hashed after normalizing only the fields that vary between runs
(``elapsed_ms``, ``elapsed:`` and ``tool_version``).  A refactor that
keeps behaviour leaves every digest unchanged; a change that means to
alter outputs re-records them with ``python tests/test_golden_outputs.py``
and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from fwaudit.cli import main
from fwaudit.rulefile import serialize_ruleset
from fwaudit.synth import worst_case_family

FIXTURES = Path(__file__).parent.parent / "fixtures"

SMALL_DOMAIN = "protocol=[0,0],source=[0,15],sport=[0,3],destination=[0,15],dport=[0,3]"
PROFILES = ("beginner", "intermediate", "expert")
WORST_CASES = ((4, 2), (5, 3), (6, 2))
# the five-tuple space is beyond the exhaustive budget, so those inputs
# are checked on seeded samples
SAMPLED_CHECK = ("--samples", "300", "--seed", "5")

_ELAPSED_MS = re.compile(r'"elapsed_ms": [-+0-9.eE]+')
_ELAPSED_TEXT = re.compile(r"elapsed: [0-9.]+ ms")
_TOOL_VERSION = re.compile(r'"tool_version": "[^"]*"')


def _normalize(text: str) -> str:
    text = _ELAPSED_MS.sub('"elapsed_ms": 0', text)
    text = _ELAPSED_TEXT.sub("elapsed: 0 ms", text)
    return _TOOL_VERSION.sub('"tool_version": ""', text)


def _digest(code: int, text: str) -> str:
    payload = f"exit={code}\n{_normalize(text)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def _input(name: str, tmp: Path) -> tuple[Path, dict[str, str], tuple[str, ...]]:
    """Write the named input to tmp; return it, any gen digest, and check flags."""
    if name == "table1":
        return FIXTURES / "table1.rules", {}, ()
    path = tmp / f"{name}.rules"
    if name.startswith("worst"):
        n, p = (int(x) for x in name[len("worst-"):].split("x"))
        path.write_text(serialize_ruleset(worst_case_family(n, p)), encoding="utf-8")
        return path, {}, ()
    prof, where = name.split("-")
    argv = ["gen", "--profile", prof, "--seed", "3", "--output", path]
    if where == "small":
        argv += ["--count", "25", "--domain", SMALL_DOMAIN]
        check = ()
    else:
        argv += ["--count", "60"]
        check = SAMPLED_CHECK
    code, _ = _run(*argv)
    return path, {"gen": _digest(code, path.read_text(encoding="utf-8"))}, check


def _rule_file_digests(name: str, tmp: Path) -> dict[str, str]:
    path, got, check = _input(name, tmp)
    for algorithm in ("detection", "complete"):
        for fmt in ("text", "json"):
            code, out = _run("audit", path, "--algorithm", algorithm, "--format", fmt)
            got[f"audit-{algorithm}-{fmt}"] = _digest(code, out)
    for mode in ("positive", "negative"):
        rewritten = tmp / f"{name}-{mode}.rules"
        code, _ = _run("rewrite", path, "--mode", mode, "--output", rewritten)
        got[f"rewrite-{mode}"] = _digest(code, rewritten.read_text(encoding="utf-8"))
    code, out = _run("check", path, tmp / f"{name}-positive.rules", *check)
    got["check"] = _digest(code, out)
    return got


def _bench_digests(tmp: Path) -> dict[str, str]:
    """Bench CSV digests with the elapsed_ms column dropped."""
    got = {}
    plans = {
        "five-tuple": {"sizes": [20], "seeds": 2, "worst_case": [list(c) for c in WORST_CASES]},
        "small": {"sizes": [10, 15], "seeds": 2, "domain": SMALL_DOMAIN},
    }
    for label, plan in plans.items():
        cfg = tmp / f"{label}.json"
        cfg.write_text(json.dumps({"algorithms": ["detection", "complete"],
                                   "profiles": list(PROFILES), **plan}))
        code, out = _run("bench", "--config", cfg)
        rows = [line.split(",") for line in out.splitlines()]
        elapsed = rows[0].index("elapsed_ms")
        kept = "\n".join(",".join(r[:elapsed] + r[elapsed + 1:]) for r in rows)
        got[label] = _digest(code, kept)
    return got


def digests(case: str, tmp: Path) -> dict[str, str]:
    return _bench_digests(tmp) if case == "bench" else _rule_file_digests(case, tmp)


CASES = (
    "table1",
    *(f"{p}-five" for p in PROFILES),
    *(f"{p}-small" for p in PROFILES),
    *(f"worst-{n}x{p}" for n, p in WORST_CASES),
    "bench",
)

# recorded by running this file as a script
GOLDEN = {
    "table1": {
        "audit-detection-text": "dc638b7588a6fdd06e6f354b25f77f9a7557c312d6b31091790e9e28919f79a3",
        "audit-detection-json": "4677180b7fd9a5c4bcfcb2548e03b769d3a5fe239013d924ebf81ed568848a98",
        "audit-complete-text": "edfb065ff4e5f8d82e0b83c53726d0eb9d55447bddae5006155939cfaa0d4fa8",
        "audit-complete-json": "844a85d4a918f92dc67b063d1cfe1d0d6fbfff7e84052c9f17f29968714716f1",
        "rewrite-positive": "afe1025a0d3d6082555b69dc5515e3dd531b2510a57f38c1843ce44a987bab8a",
        "rewrite-negative": "2a5dc79d925dc3b5877a8b65425e06281a983e7e14b3462d745229431d696234",
        "check": "95d46b5b0d6fe8c645f414ee9c571671b264217f7d34a56cdf3fdc85f91d855e"
    },
    "beginner-five": {
        "gen": "8d69564cd97de33641cf456ed4c4141a1362ebba2b48cc12365c9d420c749597",
        "audit-detection-text": "8ef4a2fdfbb6ebbfa11f3c1b469e19b0c7f185da28667ea003ea92b66f2c406d",
        "audit-detection-json": "8c2241a4acd3775db841ab6a7713aaa5b30885ab840a9935081d4e3084a785f9",
        "audit-complete-text": "e2d8ee7bd545e3b0a60b821e1b931792e8ed362b0794f26c3d32162333d983a1",
        "audit-complete-json": "1e63da57c0f219977ae085b7631f7e145471b1615de9523ebe97da8c95c32ef0",
        "rewrite-positive": "b600dcce43f492f2b8b809ac948e2d813a6c9a7e7be6a4a47106bbe911d9a832",
        "rewrite-negative": "b0b04ddf58da31a20dfcea64677d0df7e1022c3ce5976dd5a3802f63887aa283",
        "check": "6daa2abafcbff244c54e5f74e2cf4a8ee09428ba18551f5322ecf65e0857e4a1"
    },
    "intermediate-five": {
        "gen": "6c955829ccc6bc1a3df3cff3ef007079c68a88fcd38047a4adc479af5e51cf5f",
        "audit-detection-text": "1e62907bc6af8b8efc98196a4a70665fd7d1455936eabc8b9a4142b4d237728c",
        "audit-detection-json": "3332283ab683a39b245ac894c14c5e5918716454b3684c6c970fe7da8898f41c",
        "audit-complete-text": "b6e16ddfce37a136eff8f2a8de4a114663bffb83638b24c9f842f17fbe232a88",
        "audit-complete-json": "b2693c11b539f8b99044ccccb3164614885b3154ba58b0a7c1d08882f678fe84",
        "rewrite-positive": "05a6cb7769c59e2a037bdf7e32fa928afd4c6db752e8b3a0cec0477e273e0587",
        "rewrite-negative": "02de7b2e0f4001d91a7c065d645e9512729289d9f08b36f405c58243ba158a00",
        "check": "6daa2abafcbff244c54e5f74e2cf4a8ee09428ba18551f5322ecf65e0857e4a1"
    },
    "expert-five": {
        "gen": "5eabf07d3cba5c89adb7891744e464ee23ae8ff31eb7aecb8457c9ca631ebf90",
        "audit-detection-text": "530a59fe834f3881e199dc1afc369a523a000021d510c9ab3b3c5c539129213c",
        "audit-detection-json": "369c1e891ee4cd97ec8c61d4799c0f4419070ff9165de9f397b537545e293344",
        "audit-complete-text": "a7664c24c2dc1936cb02f4f7c01936f2db8a4a01edcc6ecbe6c209b33b978658",
        "audit-complete-json": "e86ff82a681d78563f539e4089e1d56788ad648efce74342f898849b52ede309",
        "rewrite-positive": "b3ca398a38eff845af6a3eaaa96ba8e1980fe4fce19be95b5abe71c60de42668",
        "rewrite-negative": "25247913872e2cbe35ffb2a8c42128dddbd10e974aa4a42e9c01cc9a891e901d",
        "check": "6daa2abafcbff244c54e5f74e2cf4a8ee09428ba18551f5322ecf65e0857e4a1"
    },
    "beginner-small": {
        "gen": "0bb7866f0271d504ee897af9c51ad60473cb4d77c213ececc6690e153d7c9aa9",
        "audit-detection-text": "8a821e669d1e584aa12463781f893531c3ddb40d1251e3db9ed46ba43fa6843f",
        "audit-detection-json": "48634ff3b9dc1f7132ff51044d0533164b256e1577f3ce295ce6cd6dd33cb925",
        "audit-complete-text": "2b83e81821d033bc930afda6248e0f8dfff8c72c8a77a96b8d90eac25cacdc16",
        "audit-complete-json": "851b8b71c09165791ffb16c42a7224938b706332f48c1d0662eb2c672fded240",
        "rewrite-positive": "b2169dc125a9b78148ae739085f7d3ed1ed3da95f98c338533d588dcc275c5d5",
        "rewrite-negative": "e45328a1747c63353990b01285a078fb795268ec6bb54835612e4ce292a00c09",
        "check": "e3266c68004606709e7450aee5aa2301c318c88ef81b8389a8b1a0a991d1c7fa"
    },
    "intermediate-small": {
        "gen": "012d058689e4531ce20fcfe3458b8442fe02e366c1c5a924c8d32daead9bbb34",
        "audit-detection-text": "64722b8910b17d63c215e428016f3f42ad37bb52473e7b38b0493d929d8fa288",
        "audit-detection-json": "afe7293d00c397a655296a01a772097506f2f1b191019e4d0b479d0c2a4f36d5",
        "audit-complete-text": "fb7256f31e5fb05ebc8438d93c05d184134bb5887f6f321e56ec3333d733c62b",
        "audit-complete-json": "4aea8338e78029e90c0892deab963a73bc7161796675cda70d82074332817c30",
        "rewrite-positive": "80bc43ba96acf824fcd43e996062b90383ab008e722d6a8cbad7dde5bc343a29",
        "rewrite-negative": "7fcb9d9920458c044f5a448a380ff5f5b6699fe0bbf8a003648d46e824fe316f",
        "check": "d7f01efe4b8c46e2e1bf741355c8a03898760d195c7c2f0ed7632d266ce278a2"
    },
    "expert-small": {
        "gen": "cc415e4044fd52e35b16618978b76974835e3bfc8740765263bacf220ab1c50b",
        "audit-detection-text": "2d17d26c4d168b5adb7081df0c44573786ab5b9885e89a3c312d00176ad50567",
        "audit-detection-json": "701f7436eca7aea92411ee1074600c929b0bda0609e5a8c94c29d296da50050c",
        "audit-complete-text": "102ba5af7f038a277d501b50c4c8a0246bfc2f3e6ddb714fcd1ab15bca44a5fc",
        "audit-complete-json": "e61dc5220dff39dad1c7d0c246e5c458ea999da988d12eda8d3894082d69a206",
        "rewrite-positive": "a50730ae204053cd3decb12ff959cd0a3688999fbc29609d46cd9d20c89cd53b",
        "rewrite-negative": "3eee01b5030c850b341e91f93bfc2ff22124ea6eb1bed2a8f9bb6ebf593764fa",
        "check": "2fe7520fe76c7fcdb53e8b54abeb6070cf0a50a0e2033262f8bfbeba5c0cc472"
    },
    "worst-4x2": {
        "audit-detection-text": "904bef32cb6a1231bb158445161194f4ab65484a050e7c7b2cf0670d172aaf10",
        "audit-detection-json": "bde5316b3405600f3f714bac05378c2dc16155b28af2e82a5b26b5238561e01c",
        "audit-complete-text": "3c05c305af3d9d4663170b9e6ef7952599cbbeb8ddd41406b0d60adeba5b51f3",
        "audit-complete-json": "b2013da355710b66020d14c11009af7875c5db11a838c46a34f641d58edba523",
        "rewrite-positive": "b29fa52bfd8a6da93c37895bc6d99193564d7efb963a9f8d5e393dfe8e36aeef",
        "rewrite-negative": "279feb50e4e8da3b9f4df9a548c6e81d625d12d734fce6790f009e8f12297e50",
        "check": "df5c969d67c088d3ad9dd85c8d12519f458e4afb49a8f799a5f3a2189e28e6cc"
    },
    "worst-5x3": {
        "audit-detection-text": "0448ca3eb5ee761826cf2f9b7d64cfe16a069d9f35d8aaa8715507cf80d0f890",
        "audit-detection-json": "a4dc104e0cf6c9e39d6a12b2c8b606a1471e5f094b2e09fd0628a118bfa02d33",
        "audit-complete-text": "b3d3b08c2a878ef8b5e8a5f276f8b5a316a607f0f7ca9fac8c4d00bc0114debd",
        "audit-complete-json": "56429f9b282399413e34797a492fbeb7385954baf8d03ee74789eb6f45d1b6f7",
        "rewrite-positive": "84e9bcb54024019abbace60cfad2f6e9993bb7e89bcb736b260be662755a35e2",
        "rewrite-negative": "8eaffbbe2a625702d293c854aad693b0a76def365df1a4ac3de42aa452457a73",
        "check": "e45feecd99324c2fa999b62db533e7ab77f58d26cdce9a58369eb8e6436a7a12"
    },
    "worst-6x2": {
        "audit-detection-text": "fa36d9a94e3fb0d9dd7fc5ddd8bed2a139ffaa737a3c210128a5ec12bd823f5a",
        "audit-detection-json": "7e6183318f7cdc427ab6ee9d0808bde8b09abd73a2c6d32220eb80b0ec202174",
        "audit-complete-text": "137d7b2a976d875db73c8f1f6b65e5bbbb50398e1e8589a36ae476f4926793cd",
        "audit-complete-json": "2d8527c3a82f51ec56ba995662c3df387d2f2fb9644230e91191eca33b19d8d5",
        "rewrite-positive": "bb9fc62597a40cdcd27f7e9102ad4fcb34eecfe4833011609767fbafb6020c51",
        "rewrite-negative": "34dd97ecb43f6496d11da6f18e2d7efad739170054fad95514674ad118b95ed8",
        "check": "df5c969d67c088d3ad9dd85c8d12519f458e4afb49a8f799a5f3a2189e28e6cc"
    },
    "bench": {
        "five-tuple": "ab19b6e5302712757ef18c04487ab6ba96471d47e7b7ff794a59c6d22a879e3a",
        "small": "d20f4f7f665eeda69804637d4261f782bee8a2b5e10c60b37cf5df3e96ae530a"
    }
}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_recorded_digests(case, tmp_path):
    assert digests(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    # re-record: print the GOLDEN table for the program as it is now
    with tempfile.TemporaryDirectory() as d:
        print(json.dumps({case: digests(case, Path(d)) for case in CASES}, indent=4))
