"""Reports and certificates keep their bytes.

The sha256 values below pin a theorem report with translation and the
certificates of every game.  A change that alters any of these bytes --
an SCC order, a move key, a JSON layout -- fails here instead of
slipping through; one that means to alter them says so and records the
new values.
"""

import hashlib
import json

from entrank import cli
from entrank.digraph import Digraph
from entrank.entgames import solve_pursuit
from entrank.gamecore import certificate_to_json, make_game, solve_finite_game
from entrank.rank import solve_comeback_game
from entrank.translate import translate_rank_strategy

from conftest import clique_edges
from test_translate import DOOR_CROSSING

# a triangle with a looped vertex and a two-cycle hanging off it; rank 2
GRAPH = Digraph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 3), (4, 1), (2, 2)])

CERTIFICATES = {
    ("rank", 0): "46b6f85299ae33c8e85dbaa2ac1a7bc8d90b75c578f2177ae56ed966aba04d94",
    ("comeback", 0): "38f753f1d87e70a9fd2e71909334e9ef536e707f5c330f6e620d0a6d68c8b17e",
    ("ent", 0): "ca7fee964f6431f0acd70e6cb7b0149c7289648540dbf049710c8c2ee2db28d4",
    ("et", 0): "62473c1602562b28c1b96592dee7c3cb8234021449d7b58ce6e8c17d14865be4",
    ("entv", 0): "662100d52e5ece59015585fcea64be385a50ff7e9b3c9bbeec2b3864d7bd5478",
    ("rank", 1): "82a9dfd36f6eab5a01b58eb7a8bcd7a8e2b562515330ef85d6ebf8785c964a61",
    ("comeback", 1): "fd48b16988c4dd22341fdd502620a1c412a560a1883f3890bbe30d41f27c04a3",
    ("ent", 1): "61e62fe648337f3c5cc157ce3be873d662de18133c2243cc8062116dd127c06d",
    ("et", 1): "d3024a071bef71dd0d455e56ac42a28928c6d791b939c49b5c3db7529307429c",
    ("entv", 1): "f3505f70105702e3c3fa8bdef3fcd4d1621b32e19dbf5c3459d33efa21027546",
    ("rank", 2): "2803e2ac9659e08d9d4ed3bacc3f75f7031e162ee4bf6d52809945ede2754119",
    ("comeback", 2): "3b5f78cc758650156b2a0d8dfbc4afb97bf2582906501bd1d70774e7373443cc",
    ("ent", 2): "cb9aada8366816ec7b737c1e6ec0b8685c900cfc6b1299fdcab58c93282b6d24",
    ("et", 2): "3c92e876f84fa9e94c1a6078baaaef097ddcf8121aa2ac3954185ca4a0c9ef35",
    ("entv", 2): "0e666f4bb27af5f18211e8c6eea1b5685a5512c1a18ce8c6dfaf60ea4825461e",
    ("translate", 2): "d837a9c8cee253345e158c13f470b5591e8f925f4117e6a84e9aea267c5838e0",
    # the translation on the door-crossing graph of test_translate.py
    ("translate-door-crossing", 2):
        "f517a695316e02b28bc2582a8db2d951f22c19c4a8a991a9e1e372c642b2ac9e",
    # thief wins on clique-6, walked over each cops position's
    # successors as the search listed them (540,599 and 12,980 bytes)
    ("entv-clique-6", 4): "4292da104e1cfa41ea4057c64be7bab64538dd593d7e82aa7b532f5161709035",
    ("comeback-clique-6", 4): "5b97c1f93a3ca755c474fe232e9945f85901581b18a5198079d8cdfa2e06bd0f",
}

THEOREM_REPORT = "0c347071b39d417135c0931952e75bf82ece333de503429de6c5f1a621f8eecb"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cert_sha(cert) -> str:
    # the layout ``game --cert`` and ``translate --cert`` write
    return _sha((json.dumps(certificate_to_json(cert), indent=2) + "\n").encode())


def test_reports_and_certificates_keep_their_bytes(tmp_path):
    out = tmp_path / "theorem.json"
    spec = "random:n=5,p=0.3,seed=7,count=40"
    assert cli.main(["verify", "theorem", "--translate", "--corpus", spec,
                     "--json", str(out)]) == 0
    assert _sha(out.read_bytes()) == THEOREM_REPORT

    got = {}
    for k in (0, 1, 2):
        got["rank", k] = _cert_sha(solve_finite_game(make_game(GRAPH, "rank", k)).certificate)
        got["comeback", k] = _cert_sha(solve_comeback_game(GRAPH, k).certificate)
        for variant in ("ent", "et", "entv"):
            got[variant, k] = _cert_sha(solve_pursuit(GRAPH, k, variant).certificate)
    comeback = solve_comeback_game(GRAPH, 2).certificate
    got["translate", 2] = _cert_sha(translate_rank_strategy(GRAPH, comeback))
    door = Digraph(5, DOOR_CROSSING)
    comeback = solve_comeback_game(door, 2).certificate
    got["translate-door-crossing", 2] = _cert_sha(translate_rank_strategy(door, comeback))
    clique = Digraph(6, clique_edges(6))
    for game_id in ("entv", "comeback"):
        got[f"{game_id}-clique-6", 4] = _cert_sha(solve_finite_game(make_game(clique, game_id, 4)).certificate)
    assert got == CERTIFICATES
