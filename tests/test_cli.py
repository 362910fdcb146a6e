"""Command-line front-end: bad input exits 2 with a one-line message, never a traceback."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairsub import InvalidArgument, ParseError, UnknownElement, cli, greedy_full
from pairsub.bench import CSV_HEADER
from pairsub.bounds import (
    BoundReport,
    alphas_pessimistic,
    bound_from_alphas,
    k_cardinality_curvature,
)
from pairsub.cli import main
from pairsub.functions import instance_from_dict
from pairsub.verify import ALL_CHECKS, DEFAULT_SAMPLES, VerificationReport

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
    (tmp_path / "trace.json").write_text(json.dumps(TRACE), encoding="utf-8")
    return tmp_path


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr()


def raised_by(argv):
    """The type of the error a command's handler raises, which main prints."""
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(Exception) as raised:
        args.handler(args)
    return type(raised.value)


def test_valid_trace_is_certified(inputs, capsys):
    (inputs / "trace.json").write_text(json.dumps(TRACE), encoding="utf-8")
    code, out = run_cli(["bound", "--instance", "inst.json", "--trace", "trace.json"], capsys)
    assert code == 0
    assert json.loads(out.out)["method"] == "algorithm1"


def third_pick(element) -> str:
    """TRACE with a third pick, which theorems 2 and 3 audit against the oracle."""
    third = {"i": 3, "element": element, "estimate": 1.0}
    return json.dumps({**TRACE, "n": 3, "final_set": [0, 1, 3],
                       "selections": [*TRACE["selections"], third]})


# name -> (trace text, error, start of its message); the rest of a message
# quotes Python's own parser, whose wording differs between versions
BAD_TRACES = {
    "invalid_json": ("{not json", ParseError, "trace.json: invalid JSON ("),
    "missing_n": (json.dumps({k: v for k, v in TRACE.items() if k != "n"}),
                  ParseError, "trace is missing the field 'n'"),
    "not_an_object": ("[1, 2]", ParseError, "a trace must be a JSON object, got list"),
    "selection_missing_element": (json.dumps({**TRACE, "selections": [{"i": 1}]}),
                                  ParseError, "trace is missing the field 'element'"),
    "no_selections": (json.dumps({**TRACE, "selections": []}),
                      ParseError, "trace has n=2 and selections labelled [], not 1..n"),
    "no_selections_at_n_zero": (json.dumps({**TRACE, "n": 0, "final_set": [], "selections": []}),
                                InvalidArgument, "trace.json: the trace selects no element"),
    "unknown_element": (json.dumps(
        {**TRACE, "selections": [{"i": 1, "element": 9, "estimate": 1.0}]}),
        ParseError, "trace has n=2 and selections labelled [1], not 1..n"),
    "element_is_a_list": (json.dumps(
        {**TRACE, "selections": [{"i": 1, "element": [1], "estimate": 1.0}]}),
        ParseError, "trace field 'element' has the wrong type: [1]"),
    "third_element_is_a_list": (third_pick([1]), ParseError,
                                "trace field 'element' has the wrong type: [1]"),
    "third_element_is_an_object": (third_pick({}), ParseError,
                                   "trace field 'element' has the wrong type: {}"),
    "bad_query_counts": (json.dumps({**TRACE, "query_counts": {"size9": 1}}),
                         ParseError, "trace field has the wrong shape: "),
    "unchecked_counts_and_final_set": (json.dumps(
        {**TRACE, "final_set": ["zero"], "query_counts": {"size1": "many", "size2": None}}),
        ParseError, "trace field 'final_set' has the wrong type: 'zero'"),
    "final_set_unsorted": (json.dumps({**TRACE, "final_set": [3, 0]}), ParseError,
                           "trace field 'final_set' is [3, 0], not the sorted selected order"),
    "count_is_null": (json.dumps({**TRACE, "query_counts": {"size1": 4, "size2": None}}),
                      ParseError, "trace field 'size2' has the wrong type: None"),
    "count_is_negative": (json.dumps({**TRACE, "query_counts": {"other": -1}}),
                          ParseError, "trace field 'other' is -1, below 0"),
    "n_is_a_string": (json.dumps({**TRACE, "n": "2"}),
                      ParseError, "trace field 'n' has the wrong type: '2'"),
    "iterations_relabelled": (json.dumps(
        {**TRACE, "selections": [{**s, "i": 1} for s in TRACE["selections"]]}),
        ParseError, "trace has n=2 and selections labelled [1, 1], not 1..n"),
    "n_disagrees": (json.dumps({**TRACE, "n": 3}),
                    ParseError, "trace has n=3 and selections labelled [1, 2], not 1..n"),
}


@pytest.mark.parametrize("method", [["--method", "theorem2"], ["--method", "theorem3", "--k", "2"]],
                         ids=["theorem2", "theorem3"])
def test_nan_estimate_is_no_certificate(inputs, capsys, method):
    # json writes and reads NaN; max(1, nan) would have passed it as a factor of 1
    doc = json.loads(third_pick(1))
    doc["selections"][2]["estimate"] = float("nan")
    (inputs / "trace.json").write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(["bound", "--instance", "inst.json", "--trace", "trace.json", *method],
                        capsys)
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: no approximation factor of nan over ")


# Every method that reads the trace's selections; the default keeps the bare id.
TRACE_METHODS = {"": [], "-theorem2": ["--method", "theorem2"],
                 "-theorem3": ["--method", "theorem3", "--k", "2"]}


@pytest.mark.parametrize(
    ("text", "error", "message", "method"),
    [(*bad, method) for bad in BAD_TRACES.values() for method in TRACE_METHODS.values()],
    ids=[name + suffix for name in BAD_TRACES for suffix in TRACE_METHODS])
def test_malformed_trace_exits_2(inputs, capsys, text, error, message, method):
    (inputs / "trace.json").write_text(text, encoding="utf-8")
    argv = ["bound", "--instance", "inst.json", "--trace", "trace.json", *method]
    code, out = run_cli(argv, capsys)
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"error: {message}") and out.err.count("\n") == 1
    assert raised_by(argv) is error


COVERAGE = {"type": "weighted_coverage",
            "params": {"universe_weights": [0.1, 0.7, 0.2, 0.3, 0.6, 0.4],
                       "covers": [[0, 1], [1, 2, 3], [2, 4], [0, 5], [3, 4, 5]]}}
# `run --instance COVERAGE --algo full --n 3 --audit` as greedy_full wrote it
# when it asked f(S) once per candidate (query_counts other 8, size1 9, size2 7)
FULL_AUDIT = {
    "algorithm": "full", "final_set": [0, 1, 4], "n": 3, "percent_of_full_greedy": 100.0,
    "schema": "pairsub/1",
    "selections": [{"element": 4, "estimate": 1.2999999999999998, "i": 1},
                   {"element": 1, "estimate": 0.9000000000000004, "i": 2},
                   {"element": 0, "estimate": 0.09999999999999964, "i": 3}],
    "true_marginals": [1.2999999999999998, 0.9000000000000004, 0.09999999999999964],
}


@pytest.mark.parametrize("algo", ["full", "optimistic"])
def test_audit_runs_the_full_greedy_once(inputs, capsys, monkeypatch, algo):
    calls, greedy_full = [], cli.greedy_full

    def counted(oracle, n):  # the run itself and the audit's comparison run
        calls.append(n)
        return greedy_full(oracle, n)

    monkeypatch.setattr(cli, "greedy_full", counted)
    monkeypatch.setitem(cli.ALGORITHMS, "full", counted)
    (inputs / "cov.json").write_text(json.dumps(COVERAGE), encoding="utf-8")
    code, out = run_cli(["run", "--instance", "cov.json", "--algo", algo, "--n", "3",
                         "--audit"], capsys)
    assert code == 0 and out.err == ""
    assert calls == [3]
    if algo == "full":
        # f(empty) once, then 5-i+1 queries of size i in round i
        expected = {**FULL_AUDIT, "query_counts": {"other": 4, "size1": 5, "size2": 4}}
        assert out.out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


# optimistic picks {0, 2, 3} for 2.4 at n = 3, the full greedy {0, 3, 4} for 2.7
MISLED = {"type": "weighted_coverage",
          "params": {"universe_weights": [0.7, 0.9, 0.3, 1.0, 0.3, 0.7],
                     "covers": [[5], [5], [0, 5], [0, 3], [4]]}}


def test_audit_reports_the_run_as_a_percent_of_the_full_greedy(inputs, capsys):
    (inputs / "misled.json").write_text(json.dumps(MISLED), encoding="utf-8")
    code, out = run_cli("run --instance misled.json --algo optimistic --n 3 --audit".split(),
                        capsys)
    assert code == 0 and out.err == ""
    oracle = instance_from_dict(MISLED)
    own = oracle.evaluate(json.loads(out.out)["final_set"])
    full = oracle.evaluate(greedy_full(oracle, 3).final_set)
    assert own < full
    assert json.loads(out.out)["percent_of_full_greedy"] == 100.0 * own / full


def test_audit_of_an_all_zero_objective_is_100_percent(inputs, capsys):
    instance = {"type": "modular", "params": {"weights": [0.0, 0.0, 0.0]}}
    (inputs / "zero.json").write_text(json.dumps(instance), encoding="utf-8")
    code, out = run_cli("run --instance zero.json --algo optimistic --n 2 --audit".split(),
                        capsys)
    assert code == 0 and out.err == ""
    assert json.loads(out.out)["percent_of_full_greedy"] == 100.0


def test_bench_times_five_trials_by_default(inputs, capsys):
    code, out = run_cli("bench --instance inst.json --algos optimistic --n-grid 1".split(), capsys)
    assert code == 0 and out.err == ""
    assert [row.split(",")[3] for row in out.out.splitlines()[1:]] == ["5"]


def test_verify_draws_default_samples_from_seed_0(inputs, capsys, monkeypatch):
    asked = []

    def recorded(oracle, samples, seed):
        asked.append((samples, seed))
        return VerificationReport("monotone", True, None, 1, "sampled", "quantified")

    monkeypatch.setitem(cli.ALL_CHECKS, "monotone", recorded)
    code, out = run_cli("verify --instance inst.json --properties monotone".split(), capsys)
    assert code == 0 and out.err == ""
    assert asked == [(DEFAULT_SAMPLES, 0)]


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


def test_bench_refuses_a_repeated_algorithm_before_timing(inputs, capsys, monkeypatch):
    timed = []
    monkeypatch.setattr(cli.bench_mod, "time_algorithm", lambda *args, **kw: timed.append(args))
    code, out = run_cli(["bench", "--instance", "inst.json", "--algos",
                         "full,optimistic,optimistic", "--n-grid", "1,2", "--trials", "1",
                         "--out", "times.csv", "--ratio", "ratio.csv"], capsys)
    assert code == 2 and out.out == ""
    assert out.err == "error: algorithm 'optimistic' is listed twice in ['full', " \
                      "'optimistic', 'optimistic']\n"
    assert timed == []
    assert not (inputs / "times.csv").exists() and not (inputs / "ratio.csv").exists()


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


# name -> (argv, error, message)
BAD_FLAGS = {
    "budget_zero": ("run --instance inst.json --algo optimistic --n 2 --budget 0",
                    InvalidArgument, "budget must be >= 1, or None for unlimited"),
    "budget_negative": ("run --instance inst.json --algo optimistic --n 2 --budget -3",
                        InvalidArgument, "budget must be >= 1, or None for unlimited"),
    "rs_zero": ("run --districts d.csv --rs 0 --algo optimistic --n 1",
                InvalidArgument, "r_s must be positive and finite, got 0.0"),
    "rs_nan": ("run --districts d.csv --rs nan --algo optimistic --n 1",
               InvalidArgument, "r_s must be positive and finite, got nan"),
    "rs_inf": ("run --districts d.csv --rs inf --algo optimistic --n 1",
               InvalidArgument, "r_s must be positive and finite, got inf"),
    "instance_and_districts": ("run --instance inst.json --districts d.csv --rs 1 "
                               "--algo optimistic --n 1", InvalidArgument,
                               "exactly one of --instance or --districts is required"),
    "no_instance": ("run --algo optimistic --n 1", InvalidArgument,
                    "exactly one of --instance or --districts is required"),
    "rs_with_instance": ("run --instance inst.json --rs 1 --algo optimistic --n 1",
                         InvalidArgument, "--rs applies to --districts input only"),
    "districts_without_rs": ("run --districts d.csv --algo optimistic --n 1", InvalidArgument,
                             "--rs is required when running on a districts CSV"),
    "n_zero": ("run --instance inst.json --algo optimistic --n 0",
               InvalidArgument, "cardinality must be >= 1, got 0"),
    "bruteforce_n_zero": ("bruteforce --instance inst.json --n 0",
                          InvalidArgument, "cardinality must be >= 1, got 0"),
    "grid_with_zero": ("bench --instance inst.json --algos optimistic --n-grid 0,1",
                       InvalidArgument, "cardinality must be >= 1, got 0"),
    "k_below_two": ("run --instance inst.json --algo k_wise_optimistic --n 2 --k 1",
                    InvalidArgument, "k must be >= 2, got 1"),
    "k_with_optimistic": ("run --instance inst.json --algo optimistic --n 2 --k 3",
                          InvalidArgument, "k applies to k_wise_optimistic only, not 'optimistic'"),
    "k_wise_without_k": ("run --instance inst.json --algo k_wise_optimistic --n 2",
                         InvalidArgument, "k_wise_optimistic requires k"),
    "solution_unknown_id": ("bound --instance inst.json --solution 0,9",
                            UnknownElement, "element id 9 outside ground set [0, 4)"),
    "solution_blank": ("bound --instance inst.json --solution ,",
                       InvalidArgument, "--solution is empty"),
    "trace_and_solution": ("bound --instance inst.json --trace trace.json --solution 0",
                           InvalidArgument, "exactly one of --trace or --solution is required"),
    "neither_trace_nor_solution": ("bound --instance inst.json", InvalidArgument,
                                   "exactly one of --trace or --solution is required"),
    "theorem2_without_trace": ("bound --instance inst.json --solution 0,1 --method theorem2",
                               InvalidArgument, "--method theorem2 needs --trace"),
    "theorem3_without_trace": ("bound --instance inst.json --solution 0,1 --method theorem3 "
                               "--k 2", InvalidArgument, "--method theorem3 needs --trace"),
    "theorem3_without_k": ("bound --instance inst.json --trace trace.json --method theorem3",
                           InvalidArgument, "--method theorem3 needs --k"),
    "trials_zero": ("bench --instance inst.json --algos optimistic --n-grid 1,2 --trials 0",
                    InvalidArgument, "trials must be >= 1, got 0"),
    "grid_descending": ("bench --instance inst.json --algos optimistic --n-grid 2,1",
                        InvalidArgument, "n_values must be ascending, got [2, 1]"),
    "bench_algos_empty": ("bench --instance inst.json --algos= --n-grid 1,2", InvalidArgument,
                          "nothing to time: algorithms [], n values [1, 2]"),
    "bench_ratio_without_full": ("bench --instance inst.json --algos optimistic --n-grid 1,2 "
                                 "--ratio r.csv", InvalidArgument,
                                 "--ratio needs 'full' plus at least one other algorithm in "
                                 "--algos"),
    "bench_ratio_full_alone": ("bench --instance inst.json --algos full --n-grid 1,2 "
                               "--ratio r.csv", InvalidArgument,
                               "--ratio needs 'full' plus at least one other algorithm in "
                               "--algos"),
    "bench_ratio_two_without_full": ("bench --instance inst.json --algos optimistic,uninformed "
                                     "--n-grid 1,2 --ratio r.csv", InvalidArgument,
                                     "--ratio needs 'full' plus at least one other algorithm "
                                     "in --algos"),
    "bench_k_without_k_wise": ("bench --instance inst.json --algos full,optimistic --n-grid 1 "
                               "--k 3", InvalidArgument,
                               "k applies to k_wise_optimistic only, not ['full', 'optimistic']"),
    "bench_k_wise_without_k": ("bench --instance inst.json --algos optimistic,k_wise_optimistic "
                               "--n-grid 1", InvalidArgument, "k_wise_optimistic requires k"),
    "samples_zero": ("verify --instance inst.json --samples 0 --properties monotone",
                     InvalidArgument, "a check needs samples >= 1, got 0"),
    "samples_negative": ("verify --instance inst.json --samples -1",
                         InvalidArgument, "a check needs samples >= 1, got -1"),
    "properties_empty": ("verify --instance inst.json --properties=", InvalidArgument,
                         f"--properties must name some of {sorted(ALL_CHECKS)}, got ''"),
    "properties_blank": ("verify --instance inst.json --properties=,", InvalidArgument,
                         f"--properties must name some of {sorted(ALL_CHECKS)}, got ','"),
    "properties_unknown": ("verify --instance inst.json --properties monotone,convex",
                           InvalidArgument, f"--properties must name some of "
                           f"{sorted(ALL_CHECKS)}, got 'monotone,convex'"),
}


@pytest.mark.parametrize(("argv", "error", "message"), BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_bad_flag_exits_2(inputs, capsys, argv, error, message):
    code, out = run_cli(argv.split(), capsys)
    assert (code, out.out, out.err) == (2, "", f"error: {message}\n")
    assert raised_by(argv.split()) is error


def test_districts_too_far_apart_for_the_kernel_run(inputs, capsys):
    """(d / r_s) ** 2 overflows a float for every pair but a and c, which
    coincide: b is out of reach of both, so a covers 1 + 3 and b only 2."""
    (inputs / "far.csv").write_text(DISTRICTS + "c,0,0,3\n", encoding="utf-8")
    code, out = run_cli("run --districts far.csv --rs 1e-300 --algo optimistic --n 2".split(),
                        capsys)
    assert (code, out.err) == (0, "")
    selections = json.loads(out.out)["selections"]
    assert [s["element"] for s in selections] == [0, 1]
    assert [s["estimate"] for s in selections] == pytest.approx([4.0, 2.0])


@pytest.mark.parametrize("argv", [
    "run --instance big.json --algo optimistic --n 2",
    "bruteforce --instance big.json --n 2",
    "verify --instance big.json --samples 5",
], ids=["run", "bruteforce", "verify"])
def test_instance_whose_total_overflows_exits_2(inputs, capsys, argv):
    """f({0, 1}) would be inf, which strict JSON cannot write."""
    doc = {"type": "modular", "params": {"weights": [1e308, 1e308]}}
    (inputs / "big.json").write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(argv.split(), capsys)
    assert code == 2 and out.out == ""
    assert out.err == "error: weights sum to inf, which is not finite\n"


def test_refused_adversarial_run_prints_only_the_error(inputs, capsys):
    adversarial = {"type": "adversarial", "params": {"V": [0, 1], "V_star": [2], "k": 1}}
    (inputs / "adv.json").write_text(json.dumps(adversarial), encoding="utf-8")
    code, out = run_cli("run --instance adv.json --algo optimistic --n 0".split(), capsys)
    assert code == 2
    assert out.err == "error: cardinality must be >= 1, got 0\n" and out.out == ""
    code, out = run_cli("run --instance adv.json --algo optimistic --n 2".split(), capsys)
    assert code == 0 and out.err.startswith("warning: adversarial instance has |V_star|=1 ")


BAD_INSTANCES = {
    "string_weight": {"type": "modular", "params": {"weights": [1, "a"]}},
    "null_weight": {"type": "weighted_coverage",
                    "params": {"universe_weights": [1, None], "covers": [[0], [1]]}},
    "null_probability": {"type": "probabilistic_coverage",
                         "params": {"demands": [1, 2], "probabilities": [[0.5, None]]}},
    "string_demand": {"type": "probabilistic_coverage",
                      "params": {"demands": ["x"], "probabilities": [[0.5]]}},
    "cover_not_iterable": {"type": "weighted_coverage",
                           "params": {"universe_weights": [1, 2], "covers": [[0], 1]}},
    "weights_not_iterable": {"type": "modular", "params": {"weights": 5}},
    "unhashable_universe_key": {"type": "weighted_coverage",
                                "params": {"universe_weights": [1, 2], "covers": [[[0]], [1]]}},
    "type_is_a_list": {"type": ["modular"], "params": {"weights": [1, 2]}},
    "params_is_a_list": {"type": "modular", "params": ["weights"]},
    "int_too_large_for_a_float": {"type": "modular", "params": {"weights": [10**400]}},
    "adversarial_k_not_integral": {"type": "adversarial",
                                   "params": {"V": [0, 1], "V_star": [2], "k": 1.5}},
    "adversarial_id_not_integral": {"type": "adversarial",
                                    "params": {"V": [0.5, 1], "V_star": [2], "k": 1}},
}


@pytest.mark.parametrize("raw", [json.dumps(doc).encode() for doc in BAD_INSTANCES.values()]
                         + [json.dumps(MODULAR).encode() + b"\xff"],
                         ids=[*BAD_INSTANCES, "not_utf8"])
def test_malformed_instance_exits_2(inputs, capsys, raw):
    (inputs / "bad.json").write_bytes(raw)
    code, out = run_cli("run --instance bad.json --algo optimistic --n 1".split(), capsys)
    assert code == 2
    assert out.err.startswith("error: ") and out.out == ""
    assert "Traceback" not in out.err


@pytest.mark.parametrize("argv", ["run --districts bad.csv --rs 1 --algo optimistic --n 1",
                                  "bound --instance inst.json --trace bad.csv"])
def test_non_utf8_file_exits_2(inputs, capsys, argv):
    (inputs / "bad.csv").write_bytes(DISTRICTS.encode() + b"\xe9,0,0,1\n")
    code, out = run_cli(argv.split(), capsys)
    assert code == 2
    assert out.err.startswith("error: ") and out.out == ""


@pytest.mark.parametrize(("name", "argv"), [
    ("d.csv", "run --districts d.csv --rs 1 --algo optimistic --n 2"),
    ("inst.json", "run --instance inst.json --algo optimistic --n 2"),
    ("trace.json", "bound --instance inst.json --trace trace.json"),
])
def test_a_utf8_byte_order_mark_is_read_past(inputs, capsys, name, argv):
    """Every input file may start with the U+FEFF that Excel and other
    Windows tools write, and reads as the same file without it."""
    code, plain = run_cli(argv.split(), capsys)
    path = inputs / name
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert run_cli(argv.split(), capsys) == (code, plain) and code == 0


@pytest.mark.parametrize("command", ["run", "bound", "verify", "bench", "bruteforce"])
def test_every_subcommand_has_help_listing_out(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert "--out" in capsys.readouterr().out


def test_list_flags_drop_blank_tokens_and_spaces(inputs, capsys):
    code, out = run_cli(["bench", "--instance", "inst.json", "--algos", " optimistic, ,full,",
                         "--n-grid", "1, 2,,", "--trials", "1"], capsys)
    assert code == 0 and out.err == ""
    assert [row.split(",")[:3] for row in out.out.splitlines()[1:]] == [
        ["optimistic", "4", "1"], ["optimistic", "4", "2"], ["full", "4", "1"], ["full", "4", "2"]]
    code, out = run_cli(["bound", "--instance", "inst.json", "--solution", " 3, ,0 ,"], capsys)
    assert code == 0
    assert out.out == run_cli(["bound", "--instance", "inst.json", "--solution", "3,0"],
                              capsys)[1].out


@pytest.mark.parametrize("argv", [
    "bench --instance inst.json --algos optimistic --n-grid 1,two",
    "bench --instance inst.json --algos optimistic --n-grid 1.5",
    "bound --instance inst.json --solution 0,x",
])
def test_non_integer_list_flag_exits_2_naming_it(inputs, capsys, argv):
    code, out = run_cli(argv.split(), capsys)
    flag = argv.split()[-2]
    assert code == 2
    assert out.err.startswith(f"error: {flag} must be comma-separated integers")


def test_bruteforce_refuses_a_count_too_long_to_print(inputs, capsys):
    instance = {"type": "modular", "params": {"weights": [1.0] * 20000}}
    (inputs / "wide.json").write_text(json.dumps(instance), encoding="utf-8")
    code, out = run_cli("bruteforce --instance wide.json --n 10000".split(), capsys)
    assert code == 2
    assert out.err.startswith("error: ") and out.out == ""
    assert "Traceback" not in out.err


def test_verify_samples_a_ground_set_too_large_to_enumerate(inputs, capsys):
    instance = {"type": "modular", "params": {"weights": [1.0] * 30}}
    (inputs / "wide.json").write_text(json.dumps(instance), encoding="utf-8")
    code, out = run_cli("verify --instance wide.json --properties monotone".split(), capsys)
    assert code == 0 and out.err == ""
    doc = json.loads(out.out)
    assert (doc["holds"], doc["mode"], doc["instances_checked"]) == (True, "sampled", 2000)


def test_verify_walks_local_forms_and_samples_a_4_to_the_m_space(inputs, capsys):
    instance = {"type": "modular", "params": {"weights": [1.0] * 12}}
    (inputs / "wide.json").write_text(json.dumps(instance), encoding="utf-8")
    code, out = run_cli("verify --instance wide.json".split(), capsys)
    assert code == 0 and out.err == ""
    reports = {doc["property"]: (doc["holds"], doc["mode"], doc["form"],
                                 doc["instances_checked"])
               for doc in map(json.loads, out.out.splitlines())}
    assert reports == {
        "normalized": (True, "exhaustive", "quantified", 1),
        "monotone": (True, "exhaustive", "quantified", 12 * 2**11),
        "marginal_lower_bound": (True, "exhaustive", "quantified", 12 * 2**11),
        "submodular": (True, "exhaustive", "local", 66 * 2**10),  # C(12,2)2^10
        "supermodularity_of_conditioning":  # C(12,2)2^10 + C(12,3)2^9
            (True, "exhaustive", "local", 66 * 2**10 + 220 * 2**9),
        "pairwise_redundancy_bound":  # the local form, 12*3^11 tuples, does not fit
            (True, "sampled", "quantified", 2000),
        "nemhauser_inequality":  # 12*2^11 + C(12,2)2^10
            (True, "exhaustive", "local", 12 * 2**11 + 66 * 2**10),
    }


def test_verify_proves_the_redundancy_bound_on_11_elements(inputs, capsys):
    instance = {"type": "modular", "params": {"weights": [1.0] * 11}}
    (inputs / "wide.json").write_text(json.dumps(instance), encoding="utf-8")
    code, out = run_cli("verify --instance wide.json --properties pairwise_redundancy_bound"
                        .split(), capsys)
    assert code == 0 and out.err == ""
    doc = json.loads(out.out)
    assert (doc["holds"], doc["mode"], doc["form"], doc["instances_checked"]) == \
        (True, "exhaustive", "local", 11 * 3**10)


def test_theorem5_without_tau2_takes_the_scanned_tau2(inputs, capsys):
    (inputs / "cov.json").write_text(json.dumps(COVERAGE), encoding="utf-8")
    argv = "bound --instance cov.json --solution 4,1,0 --method theorem5".split()
    code, out = run_cli(argv, capsys)
    assert code == 0 and out.err == ""
    tau2 = k_cardinality_curvature(instance_from_dict(COVERAGE), 2)
    alphas = alphas_pessimistic(tau2, 3)
    assert 0.0 < tau2 < 1.0 and max(alphas) > 1.0  # the scanned value moves the factors
    expected = {"schema": "pairsub/1",
                **BoundReport(alphas, bound_from_alphas(alphas, 3), "theorem5").to_dict()}
    assert json.loads(out.out) == expected
    code, given_tau2 = run_cli([*argv, "--tau2", repr(tau2)], capsys)
    assert (code, given_tau2.out) == (0, out.out)


# tau_2 = 0.4375 but tau_3 = 0.6, so at n = 3 the last factor is 8 by tau_2, inf by tau_3
OVERLAPS = {"type": "weighted_coverage",
            "params": {"universe_weights": [0.7, 0.8, 0.8, 0.9, 0.8, 0.9, 0.1, 0.5],
                       "covers": [[0, 3, 5], [0, 2, 7], [1, 6, 7], [0, 4, 6]]}}


def test_theorem5_without_tau2_scans_pairs_not_triples(inputs, capsys):
    (inputs / "overlaps.json").write_text(json.dumps(OVERLAPS), encoding="utf-8")
    code, out = run_cli("bound --instance overlaps.json --solution 0,1,2 --method theorem5"
                        .split(), capsys)
    assert code == 0 and out.err == ""
    oracle = instance_from_dict(OVERLAPS)
    alphas = alphas_pessimistic(k_cardinality_curvature(oracle, 2), 3)
    assert alphas != alphas_pessimistic(k_cardinality_curvature(oracle, 3), 3)
    expected = {"schema": "pairsub/1",
                **BoundReport(alphas, bound_from_alphas(alphas, 3), "theorem5").to_dict()}
    assert json.loads(out.out) == expected


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["i", "element", "estimate", "size1", "x"]), inner, max_size=3),
    max_leaves=8,
)


def _kept_dropped_or_replaced(draw, fields: dict) -> dict:
    doc = {}
    for key, value in fields.items():
        choice = draw(st.sampled_from(["keep", "drop", "replace"]))
        if choice == "keep":
            doc[key] = value
        elif choice == "replace":
            doc[key] = draw(json_values)
    return doc


@st.composite
def trace_documents(draw):
    """The fields of a valid trace, each kept, dropped or replaced."""
    return _kept_dropped_or_replaced(draw, TRACE)


INSTANCES = (
    MODULAR, COVERAGE,
    {"type": "probabilistic_coverage",
     "params": {"demands": {"e1": 2.0, "e2": 3.0},
                "probabilities": {"x": {"e1": 0.5}, "y": {"e1": 0.5, "e2": 1.0}, "z": [0.2]}}},
    {"type": "adversarial", "params": {"V": [0, 1, 2], "V_star": [3, 4], "k": 2}},
)


@st.composite
def instance_documents(draw):
    """The fields of a valid instance, each kept, dropped or replaced, and
    the parameters of kept params the same way."""
    valid = draw(st.sampled_from(INSTANCES))
    doc = _kept_dropped_or_replaced(draw, valid)
    if "params" in doc and doc["params"] is valid["params"]:
        doc["params"] = _kept_dropped_or_replaced(draw, valid["params"])
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


COMMANDS = ("run --instance inst.json --algo optimistic --n 2",
            "bound --instance inst.json --solution 1,0",
            "verify --instance inst.json --samples 50",
            "bruteforce --instance inst.json --n 2")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.sampled_from(INSTANCES), instance_documents()).map(json.dumps)
       | st.text(max_size=30),
       st.sampled_from(COMMANDS))
def test_fuzzed_instance_never_raises(inputs, capsys, text, command):
    (inputs / "inst.json").write_text(text, encoding="utf-8")
    code, out = run_cli(command.split(), capsys)
    assert code in (0, 2)
    if code == 2:
        assert out.err.startswith("error: ") and out.out == ""
    assert "Traceback" not in out.err
