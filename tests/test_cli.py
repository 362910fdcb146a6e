"""Command-line front-end: bad input exits 2 with a one-line message, never a traceback."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairsub.bench import CSV_HEADER
from pairsub.cli import main

MODULAR = {"type": "modular", "params": {"weights": [3, 1, 2, 5]}}
DISTRICTS = "district_id,x,y,demand\na,0,0,1\nb,1,1,2\n"
TRACE = {"algorithm": "optimistic", "n": 2, "final_set": [0, 3],
         "selections": [{"i": 1, "element": 3, "estimate": 5.0},
                        {"i": 2, "element": 0, "estimate": 3.0}]}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.json").write_text(json.dumps(MODULAR), encoding="utf-8")
    (tmp_path / "d.csv").write_text(DISTRICTS, encoding="utf-8")
    return tmp_path


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr()


def test_valid_trace_is_certified(inputs, capsys):
    (inputs / "trace.json").write_text(json.dumps(TRACE), encoding="utf-8")
    code, out = run_cli(["bound", "--instance", "inst.json", "--trace", "trace.json"], capsys)
    assert code == 0
    assert json.loads(out.out)["method"] == "algorithm1"


def third_pick(element) -> str:
    """TRACE with a third pick, which theorems 2 and 3 audit against the oracle."""
    third = {"i": 3, "element": element, "estimate": 1.0}
    return json.dumps({**TRACE, "n": 3, "selections": [*TRACE["selections"], third]})


BAD_TRACES = {
    "invalid_json": "{not json",
    "missing_n": json.dumps({k: v for k, v in TRACE.items() if k != "n"}),
    "not_an_object": "[1, 2]",
    "selection_missing_element": json.dumps({**TRACE, "selections": [{"i": 1}]}),
    "no_selections": json.dumps({**TRACE, "selections": []}),
    "unknown_element": json.dumps(
        {**TRACE, "selections": [{"i": 1, "element": 9, "estimate": 1.0}]}),
    "element_is_a_list": json.dumps(
        {**TRACE, "selections": [{"i": 1, "element": [1], "estimate": 1.0}]}),
    "third_element_is_a_list": third_pick([1]),
    "third_element_is_an_object": third_pick({}),
    "bad_query_counts": json.dumps({**TRACE, "query_counts": {"size9": 1}}),
    "n_is_a_string": json.dumps({**TRACE, "n": "2"}),
    "iterations_relabelled": json.dumps(
        {**TRACE, "selections": [{**s, "i": 1} for s in TRACE["selections"]]}),
    "n_disagrees": json.dumps({**TRACE, "n": 3}),
}


# Every method that reads the trace's selections; the default keeps the bare id.
TRACE_METHODS = {"": [], "-theorem2": ["--method", "theorem2"],
                 "-theorem3": ["--method", "theorem3", "--k", "2"]}


@pytest.mark.parametrize(
    ("text", "method"),
    [(text, method) for text in BAD_TRACES.values() for method in TRACE_METHODS.values()],
    ids=[name + suffix for name in BAD_TRACES for suffix in TRACE_METHODS])
def test_malformed_trace_exits_2(inputs, capsys, text, method):
    (inputs / "trace.json").write_text(text, encoding="utf-8")
    code, out = run_cli(["bound", "--instance", "inst.json", "--trace", "trace.json", *method],
                        capsys)
    assert code == 2
    assert out.err.startswith("error: ") and out.out == ""


def test_bench_ratio_writes_full_over_each_pairwise_strategy(inputs, capsys):
    code, out = run_cli(["bench", "--instance", "inst.json", "--algos",
                         "full,optimistic,uninformed", "--n-grid", "1,3", "--trials", "1",
                         "--ratio", "ratio.csv"], capsys)
    assert code == 0 and out.err == ""
    assert out.out.splitlines()[0] == CSV_HEADER and len(out.out.splitlines()) == 7
    header, *rows = (inputs / "ratio.csv").read_text(encoding="utf-8").splitlines()
    assert header == "algorithm,n,ratio"
    assert [row.rsplit(",", 1)[0] for row in rows] == [
        "optimistic,1", "optimistic,3", "uninformed,1", "uninformed,3"]
    for row in rows:
        ratio = row.rsplit(",", 1)[1]
        assert float(ratio) > 0.0 and repr(float(ratio)) == ratio


def test_bench_k_goes_to_the_k_wise_strategy_only(inputs, capsys):
    code, out = run_cli(["bench", "--instance", "inst.json", "--algos", "full,k_wise_optimistic",
                         "--k", "3", "--n-grid", "1,3", "--trials", "1", "--ratio", "ratio.csv"],
                        capsys)
    assert code == 0 and out.err == ""
    assert [row.split(",")[:3] for row in out.out.splitlines()[1:]] == [
        ["full", "4", "1"], ["full", "4", "3"],
        ["k_wise_optimistic", "4", "1"], ["k_wise_optimistic", "4", "3"]]
    header, *rows = (inputs / "ratio.csv").read_text(encoding="utf-8").splitlines()
    assert [row.rsplit(",", 1)[0] for row in rows] == ["k_wise_optimistic,1",
                                                        "k_wise_optimistic,3"]


BAD_FLAGS = {
    "budget_zero": "run --instance inst.json --algo optimistic --n 2 --budget 0",
    "budget_negative": "run --instance inst.json --algo optimistic --n 2 --budget -3",
    "rs_zero": "run --districts d.csv --rs 0 --algo optimistic --n 1",
    "rs_nan": "run --districts d.csv --rs nan --algo optimistic --n 1",
    "rs_inf": "run --districts d.csv --rs inf --algo optimistic --n 1",
    "k_below_two": "run --instance inst.json --algo k_wise_optimistic --n 2 --k 1",
    "k_with_optimistic": "run --instance inst.json --algo optimistic --n 2 --k 3",
    "k_wise_without_k": "run --instance inst.json --algo k_wise_optimistic --n 2",
    "theorem5_n_zero": "bound --instance inst.json --solution 0,1 --method theorem5 --n 0",
    "solution_unknown_id": "bound --instance inst.json --solution 0,9",
    "trials_zero": "bench --instance inst.json --algos optimistic --n-grid 1,2 --trials 0",
    "grid_descending": "bench --instance inst.json --algos optimistic --n-grid 2,1",
    "bench_algos_empty": "bench --instance inst.json --algos= --n-grid 1,2",
    "bench_ratio_without_full": "bench --instance inst.json --algos optimistic --n-grid 1,2 "
                                "--ratio r.csv",
    "bench_k_without_k_wise": "bench --instance inst.json --algos full,optimistic --n-grid 1 --k 3",
    "bench_k_wise_without_k": "bench --instance inst.json --algos optimistic,k_wise_optimistic "
                              "--n-grid 1",
    "samples_zero": "verify --instance inst.json --samples 0 --limit 2 --properties monotone",
    "samples_negative": "verify --instance inst.json --samples -1",
}


@pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_bad_flag_exits_2(inputs, capsys, argv):
    code, out = run_cli(argv.split(), capsys)
    assert code == 2
    assert out.err.startswith("error: ") and out.out == ""


def test_bruteforce_refuses_a_count_too_long_to_print(inputs, capsys):
    instance = {"type": "modular", "params": {"weights": [1.0] * 20000}}
    (inputs / "wide.json").write_text(json.dumps(instance), encoding="utf-8")
    code, out = run_cli("bruteforce --instance wide.json --n 10000".split(), capsys)
    assert code == 2
    assert out.err.startswith("error: ") and out.out == ""
    assert "Traceback" not in out.err


def test_verify_refuses_an_exhaustive_table_it_cannot_build(inputs, capsys):
    instance = {"type": "modular", "params": {"weights": [1.0] * 30}}
    (inputs / "wide.json").write_text(json.dumps(instance), encoding="utf-8")
    code, out = run_cli("verify --instance wide.json --limit 40 --properties monotone".split(),
                        capsys)
    assert code == 2
    assert out.err.startswith("error: ") and out.out == ""
    assert "1073741824 subsets" in out.err


def test_verify_walks_local_forms_and_refuses_a_4_to_the_m_space(inputs, capsys):
    instance = {"type": "modular", "params": {"weights": [1.0] * 12}}
    (inputs / "wide.json").write_text(json.dumps(instance), encoding="utf-8")
    argv = "verify --instance wide.json --limit 12 --properties".split()
    code, out = run_cli([*argv, "supermodularity_of_conditioning"], capsys)
    assert code == 0
    doc = json.loads(out.out)
    assert (doc["holds"], doc["mode"], doc["form"]) == (True, "exhaustive", "local")
    assert doc["instances_checked"] == 66 * 2**10 + 220 * 2**9  # C(12,2)2^10 + C(12,3)2^9
    code, out = run_cli([*argv, "nemhauser_inequality"], capsys)
    assert code == 2
    assert out.err.startswith("error: ") and out.out == ""
    assert "16777216 tuples" in out.err and "Traceback" not in out.err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["i", "element", "estimate", "size1", "x"]), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def trace_documents(draw):
    """The fields of a valid trace, each kept, dropped or replaced."""
    doc = {}
    for key, value in TRACE.items():
        choice = draw(st.sampled_from(["keep", "drop", "replace"]))
        if choice == "keep":
            doc[key] = value
        elif choice == "replace":
            doc[key] = draw(json_values)
    return doc


METHODS = (["--method", "algorithm1"], ["--method", "theorem2"],
           ["--method", "theorem3", "--k", "2"], ["--method", "theorem5", "--tau2", "0.1"])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(trace_documents().map(json.dumps), st.text(max_size=30)),
       st.sampled_from(METHODS))
def test_fuzzed_trace_never_raises(inputs, capsys, text, method):
    (inputs / "trace.json").write_text(text, encoding="utf-8")
    code, out = run_cli(["bound", "--instance", "inst.json", "--trace", "trace.json", *method],
                        capsys)
    assert code in (0, 2)
    if code == 2:
        assert out.err.startswith("error: ")
