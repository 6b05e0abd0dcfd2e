"""Byte-identity gate: SHA-256 digests of normalized CLI outputs.

Every command the CLI offers runs in-process on a fixed set of inputs:
the Table 1 fixture, the three officer profiles generated by ``gen`` on
the five-tuple domain and on a small ``--domain``, the dense expert
profile at n = 250 on the five-tuple domain, and three members of the
worst-case family.  Each output, prefixed with its exit code, is
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
# the five-tuple inputs are checked on seeded samples
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
        # "five" is the five-tuple domain at n = 60, a number the count
        argv += ["--count", "60" if where == "five" else where]
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
    "expert-250",
    *(f"worst-{n}x{p}" for n, p in WORST_CASES),
    "bench",
)

# recorded by running this file as a script
GOLDEN = {
    "table1": {
        "audit-detection-text": "dc638b7588a6fdd06e6f354b25f77f9a7557c312d6b31091790e9e28919f79a3",
        "audit-detection-json": "12787c581eb54b3e6e31102f5aebf4227855d3e085ef880b965a3a53dcf8dcea",
        "audit-complete-text": "edfb065ff4e5f8d82e0b83c53726d0eb9d55447bddae5006155939cfaa0d4fa8",
        "audit-complete-json": "257dfd70a451a296c29c131d28f429c8faac05fbed331fe580cf0731f89c484e",
        "rewrite-positive": "afe1025a0d3d6082555b69dc5515e3dd531b2510a57f38c1843ce44a987bab8a",
        "rewrite-negative": "2a5dc79d925dc3b5877a8b65425e06281a983e7e14b3462d745229431d696234",
        "check": "95d46b5b0d6fe8c645f414ee9c571671b264217f7d34a56cdf3fdc85f91d855e"
    },
    "beginner-five": {
        "gen": "8d69564cd97de33641cf456ed4c4141a1362ebba2b48cc12365c9d420c749597",
        "audit-detection-text": "8ef4a2fdfbb6ebbfa11f3c1b469e19b0c7f185da28667ea003ea92b66f2c406d",
        "audit-detection-json": "138eb9dedb6cb957cffb4895e4e96885045141c6306202c8ca8f42fd18af2043",
        "audit-complete-text": "e2d8ee7bd545e3b0a60b821e1b931792e8ed362b0794f26c3d32162333d983a1",
        "audit-complete-json": "5c23a29b0e93f5e69b15fb8ae9be1bb774192984699a251381930e9d5892eb9d",
        "rewrite-positive": "b600dcce43f492f2b8b809ac948e2d813a6c9a7e7be6a4a47106bbe911d9a832",
        "rewrite-negative": "b0b04ddf58da31a20dfcea64677d0df7e1022c3ce5976dd5a3802f63887aa283",
        "check": "6daa2abafcbff244c54e5f74e2cf4a8ee09428ba18551f5322ecf65e0857e4a1"
    },
    "intermediate-five": {
        "gen": "6c955829ccc6bc1a3df3cff3ef007079c68a88fcd38047a4adc479af5e51cf5f",
        "audit-detection-text": "25c60bbada7cc1e9037020d883f95fbb1e8d8be0f92dd398bf701cfe202b27d9",
        "audit-detection-json": "033a44445f97549ea4183679588853a7228dcb4a2fa7b1551027c25ebc191418",
        "audit-complete-text": "77d0d9e2d03cb86e56220cd42ab1bbd501be4eb4f07d1939a822b579a3d682cb",
        "audit-complete-json": "2cbbe12ae7d01273072ca61db5dd52948103813d30ab846e2bef2b2b5210f755",
        "rewrite-positive": "2d75d6138f2484831f8e7f4f23b546833f9260a0c5fa6b63ff4981f4776c4f0c",
        "rewrite-negative": "02de7b2e0f4001d91a7c065d645e9512729289d9f08b36f405c58243ba158a00",
        "check": "6daa2abafcbff244c54e5f74e2cf4a8ee09428ba18551f5322ecf65e0857e4a1"
    },
    "expert-five": {
        "gen": "5eabf07d3cba5c89adb7891744e464ee23ae8ff31eb7aecb8457c9ca631ebf90",
        "audit-detection-text": "b2730a28dd45fa529c567447b5324903fb8aa8b85e6b4ec629d140be56f04888",
        "audit-detection-json": "1b0d291176b9bc88d22bdf9ab97a7c382b31659ec6fc21c86622afddad8c6dbf",
        "audit-complete-text": "f99a7dbffb5e3dd8ff7fdbe625daa1219044401450c11dbf015b21bcaceccd87",
        "audit-complete-json": "3581b4ff2842818da6f3e69118efadc0746b36bfb98afb8c632d9785f2b2a5c0",
        "rewrite-positive": "5534f4ad1aa91ce08234b16e844cc9947bae6298d8d6b9f897867917617c7e4c",
        "rewrite-negative": "48791c8395a6e7a1a9a901b8a2641f608fc2b69904484210b8b0b64009e2f98b",
        "check": "6daa2abafcbff244c54e5f74e2cf4a8ee09428ba18551f5322ecf65e0857e4a1"
    },
    "beginner-small": {
        "gen": "0bb7866f0271d504ee897af9c51ad60473cb4d77c213ececc6690e153d7c9aa9",
        "audit-detection-text": "8a821e669d1e584aa12463781f893531c3ddb40d1251e3db9ed46ba43fa6843f",
        "audit-detection-json": "535d9f7608b490b3e6868023647cead46111df24106e31d777fd67d885be1a32",
        "audit-complete-text": "2b83e81821d033bc930afda6248e0f8dfff8c72c8a77a96b8d90eac25cacdc16",
        "audit-complete-json": "99a1b81345ada0915fe377503605ea6d6ff655421271feed8cd4d7b5c6220787",
        "rewrite-positive": "b2169dc125a9b78148ae739085f7d3ed1ed3da95f98c338533d588dcc275c5d5",
        "rewrite-negative": "e45328a1747c63353990b01285a078fb795268ec6bb54835612e4ce292a00c09",
        "check": "e3266c68004606709e7450aee5aa2301c318c88ef81b8389a8b1a0a991d1c7fa"
    },
    "intermediate-small": {
        "gen": "012d058689e4531ce20fcfe3458b8442fe02e366c1c5a924c8d32daead9bbb34",
        "audit-detection-text": "64722b8910b17d63c215e428016f3f42ad37bb52473e7b38b0493d929d8fa288",
        "audit-detection-json": "7d5a186398a54df41edb3abdd50c7a2038b006483248058afe39f44b4e489daa",
        "audit-complete-text": "0bada58b6c653d7a3751051d7bbf1da6db4441fd806f79a2df6ca6e13f0e9132",
        "audit-complete-json": "7f2da604f11a3fb961053b206ae2b4ad4741d1f6c18efc092850db218013839c",
        "rewrite-positive": "80bc43ba96acf824fcd43e996062b90383ab008e722d6a8cbad7dde5bc343a29",
        "rewrite-negative": "7fcb9d9920458c044f5a448a380ff5f5b6699fe0bbf8a003648d46e824fe316f",
        "check": "d7f01efe4b8c46e2e1bf741355c8a03898760d195c7c2f0ed7632d266ce278a2"
    },
    "expert-small": {
        "gen": "cc415e4044fd52e35b16618978b76974835e3bfc8740765263bacf220ab1c50b",
        "audit-detection-text": "2d17d26c4d168b5adb7081df0c44573786ab5b9885e89a3c312d00176ad50567",
        "audit-detection-json": "3a2284cae9b69edae429d7e413e85e12aad48651011d21f038503cf56886f5a1",
        "audit-complete-text": "102ba5af7f038a277d501b50c4c8a0246bfc2f3e6ddb714fcd1ab15bca44a5fc",
        "audit-complete-json": "ece8027f4a7f5e33308cf5369e7480fd8401000e99672c1032b2befb05048691",
        "rewrite-positive": "a50730ae204053cd3decb12ff959cd0a3688999fbc29609d46cd9d20c89cd53b",
        "rewrite-negative": "3eee01b5030c850b341e91f93bfc2ff22124ea6eb1bed2a8f9bb6ebf593764fa",
        "check": "2fe7520fe76c7fcdb53e8b54abeb6070cf0a50a0e2033262f8bfbeba5c0cc472"
    },
    "expert-250": {
        "gen": "47f89e7e574ccb37df5d29b2e6f10feece5afdf5fb3bac392be8090950785886",
        "audit-detection-text": "e33601de29fa1422ccea0d3da536d31abe35dc694f4aaffcaf7081205d4d6c50",
        "audit-detection-json": "1a8f0339c3ad5aa0e1be9b7517404f5f6ab90266a27819505d972f20e2830fe9",
        "audit-complete-text": "f6b0b8bf64bbfdc673aea9ef5454bb7a32d875fe2a7f160b45a967b89d37b1f3",
        "audit-complete-json": "aa9084586a5491bad91ecf8725e7cf4448f43d4a18b7d277241542204dda8082",
        "rewrite-positive": "c9ab27491d14a3dff19d6b29bdfba4839ff374e361784c233e98c8bf295c1c5d",
        "rewrite-negative": "6a4812028e0d8346997b87046489c1a88344a50ea2c14899f1063816b64a4f65",
        "check": "6daa2abafcbff244c54e5f74e2cf4a8ee09428ba18551f5322ecf65e0857e4a1"
    },
    "worst-4x2": {
        "audit-detection-text": "96ab8611882c89c7e3e012ea3c03828594d5ed27b8e2565e879565326a05bbc9",
        "audit-detection-json": "be07ab83838478b451b49b856c96ec113ed229b7e1ff6d6c7305a4f862baacbe",
        "audit-complete-text": "b8644178c2d981bf714612b0984fda5e43dd513b44fe6139a4bf6b9cd9f3688b",
        "audit-complete-json": "69b498e3ee63660597f42dcdbbca3481fa212cd5eeb1146f6a4f69cabcac1361",
        "rewrite-positive": "f94e26ee8205922eb40ff822e974b7ac5d7705ce227156110e7c93f40f048fde",
        "rewrite-negative": "61ad560c6833283478f8c2c23876eef0b3961775cb0bf101b5359db5b22b8edc",
        "check": "df5c969d67c088d3ad9dd85c8d12519f458e4afb49a8f799a5f3a2189e28e6cc"
    },
    "worst-5x3": {
        "audit-detection-text": "cd7279cf39df0acb813b0884e662170f6d3bb8a0c38730cfddf0845b20f3b2bf",
        "audit-detection-json": "acdfabd8865dd62458e32812f29a9e8ec194f3603b68a389d08c53fedc353555",
        "audit-complete-text": "b4fed533712f78ddac74152fe88e8cf7c3035a28d4cd488115a7074eadd21b68",
        "audit-complete-json": "efdd98585826eb1d312ddbd9dec1b6e10132842c35a85a63afa435921717f8c8",
        "rewrite-positive": "d07768b7e6e6319d2f176ba8c7f50cc7f2a1ccc177d1e704fe243ff98ab3dd33",
        "rewrite-negative": "5ad3c06eaaf4dd83c536fd554d5ddefcba65e81ad01356accd7fb9c469ec05b2",
        "check": "e45feecd99324c2fa999b62db533e7ab77f58d26cdce9a58369eb8e6436a7a12"
    },
    "worst-6x2": {
        "audit-detection-text": "124dcd330f0e668bf3a5fcd020e3b528293357dbf6f3e6d9d1e0e6598c0b0b78",
        "audit-detection-json": "96a3fedfb7bc82e2451e5c006265c9bb84eeef3bc65d9f9403b1cada24cc7cc4",
        "audit-complete-text": "815fc70c830f9cbb68464c7fc42ca5901fbc1b6c20e521ed7dc0d15cc7e34ce9",
        "audit-complete-json": "42f7796d792595f662893192362b8d809f62dfd20d3a45bc6921e3cf55ba3be5",
        "rewrite-positive": "34725794470f6ea2cbdee40bcac8f0cfd88eb35d2fb46614449297c5a1cc4343",
        "rewrite-negative": "58c6ee4407ea94e5df8e0a10f336dd3b64563abc5b3897cf14b15750967571b5",
        "check": "df5c969d67c088d3ad9dd85c8d12519f458e4afb49a8f799a5f3a2189e28e6cc"
    },
    "bench": {
        "five-tuple": "b4d2cb4b9e581e8bbaae01cfa508cd3a17f07ac9e4ac0b2de3fc1e748e444b62",
        "small": "534585a2e9bf570ddcfcae90a0858f2d1ddea46fc287ad9094ff2cb45d410d2b"
    }
}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_recorded_digests(case, tmp_path):
    assert digests(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    # re-record: print the GOLDEN table for the program as it is now
    with tempfile.TemporaryDirectory() as d:
        print(json.dumps({case: digests(case, Path(d)) for case in CASES}, indent=4))
