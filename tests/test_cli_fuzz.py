"""Property tests of the CLI contract on mutated documents.

Every subcommand, fed a golden document with keys dropped or retyped, ids
changed, values nested or the text cut short, must exit 0-3 with at most
one stdout line, that line JSON, and no traceback. Documents that parse
must survive a serialize/parse round trip unchanged.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gflownf import Plane, parse_gflow, serialize_gflow
from gflownf.cli import main
from gflownf.opengraph import parse_open_graph_document, serialize_open_graph

from test_cli import GOLDEN_DOCS

# (graph, gflow or corrective-map) documents that belong together
PAIRS = [
    ("path.json", flow)
    for flow in ("path_g.json", "path_bad.json", "path_maps.json", "far_g.json",
                 "path_cycle.json")
] + [("tri.json", "tri_g.json"), ("tri.json", "tri_cycle.json"),
     ("edge_xy.json", "edge_xy_g.json"), ("edge_xz.json", "edge_xz_g.json")]
IDS = st.one_of(st.integers(-2, 4), st.sampled_from([10**12, 2**64, -(10**12)]))
LEAVES = st.one_of(
    st.none(), st.booleans(), IDS, st.floats(), st.text(max_size=3),
    st.just([]), st.just({}),
)
KEYS = st.one_of(IDS.map(str), st.sampled_from(["01", "+1", " 1", "1.0", "g", "x"]))


class Nest:
    """A value inside ``depth`` JSON lists; ``dump`` writes the brackets as
    text, past the depth at which ``json.dumps`` would recurse too far."""

    def __init__(self, value, depth):
        self.value, self.depth = value, depth


def dump(obj):
    if isinstance(obj, Nest):
        return "[" * obj.depth + dump(obj.value) + "]" * obj.depth
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(dump(v) for v in obj) + "]"
    return json.dumps(obj)


def mutate(draw, node):
    """node with one random sub-value dropped, retyped, renumbered, re-keyed
    or nested."""
    children = ()
    if isinstance(node, dict):
        children = list(node)
    elif isinstance(node, list):
        children = range(len(node))
    if children and draw(st.booleans()):
        at = draw(st.sampled_from(children))
        node[at] = mutate(draw, node[at])
        return node
    op = draw(st.sampled_from(["drop", "retype", "renumber", "rekey", "nest"]))
    if op == "drop" and children:
        del node[draw(st.sampled_from(children))]
        return node
    if op == "rekey" and isinstance(node, dict) and node:
        key = draw(st.sampled_from(list(node)))
        node[draw(KEYS)] = node.pop(key)
        return node
    if op == "renumber" and type(node) is int:
        return draw(IDS)
    if op == "nest":
        return Nest(node, draw(st.sampled_from([1, 2, 30, 5000])))
    return draw(LEAVES)


@st.composite
def mutated(draw, name):
    doc = json.loads(GOLDEN_DOCS[name])
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        doc = mutate(draw, doc)
    text = dump(doc)
    if draw(st.integers(0, 7)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def invocations(draw, tmp):
    cmd = draw(st.sampled_from(
        ["verify", "find", "enumerate", "focus", "check-nf", "promote", "simulate",
         "oracle-compare"]
    ))
    if cmd == "oracle-compare":
        return [cmd, "--max-vertices", str(draw(st.integers(-1, 2))),
                "--trials", str(draw(st.integers(-1, 4))), "--seed", "1"]
    graph, flow = tmp / "graph.json", tmp / "flow.json"
    for path, name in zip((graph, flow), draw(st.sampled_from(PAIRS))):
        path.write_text(draw(mutated(name)))
    argv = [cmd, str(graph)]
    if cmd in ("verify", "focus", "check-nf", "promote") or (
        cmd == "simulate" and draw(st.booleans())
    ):
        argv.append(str(flow))
    if cmd in ("focus", "check-nf"):
        argv += ["--sigma", draw(st.sampled_from("XYZ"))]
    if cmd == "promote":
        argv += ["--sigma", draw(st.sampled_from("YZ")), "--vertex", str(draw(IDS))]
    if cmd == "enumerate":
        argv += ["--limit", str(draw(st.integers(-1, 50)))]
    if cmd == "simulate":
        argv += ["--input", draw(st.sampled_from(["basis", "random"])),
                 "--branch-bound", str(draw(st.integers(-1, 4)))]
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_contract_on_mutated_documents(tmp_path_factory, data):
    argv = data.draw(invocations(tmp_path_factory.mktemp("fuzz")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    lines = out.getvalue().splitlines()
    assert len(lines) <= 1
    for line in lines:
        json.loads(line)
    assert "Traceback" not in err.getvalue()


def open_graph_texts():
    @st.composite
    def build(draw):
        ids = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=6, unique=True))
        pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        edges = [[u, v] if draw(st.booleans()) else [v, u] for u, v in edges]
        outputs = draw(st.lists(st.sampled_from(ids), unique=True))
        inputs = draw(st.lists(st.sampled_from(ids), unique=True))
        measured = [v for v in ids if v not in outputs]
        planes = {str(v): draw(st.sampled_from([p.value for p in Plane])) for v in measured}
        doc = {"vertices": ids, "edges": edges, "inputs": inputs, "outputs": outputs,
               "planes": planes}
        if draw(st.booleans()):
            angle = st.floats(0, math.tau, exclude_max=True)
            doc["angles"] = {str(v): draw(angle) for v in measured}
        return json.dumps(doc)

    return build()


@given(open_graph_texts())
def test_open_graph_round_trip(text):
    eog, angles = parse_open_graph_document(text)
    again = serialize_open_graph(eog, angles)
    assert parse_open_graph_document(again) == (eog, angles)
    assert serialize_open_graph(*parse_open_graph_document(again)) == again


@given(st.dictionaries(
    st.integers(0, 10**12).map(str),
    st.lists(st.integers(0, 10**12), unique=True, max_size=5),
    max_size=6,
))
def test_gflow_round_trip(g):
    flow = parse_gflow(json.dumps({"g": g}))
    again = serialize_gflow(flow)
    assert parse_gflow(again) == flow
    assert serialize_gflow(parse_gflow(again)) == again
