"""District CSV ingestion and kernel-based instance construction."""

import math
import random
import sys

import pytest

from pairsub import (
    District,
    DuplicateId,
    EmptyInput,
    InvalidArgument,
    KernelConfig,
    NegativeDemand,
    ParseError,
    build_coverage_instance,
    build_oracle,
    check_monotone,
    check_submodular,
    check_supermodularity_of_conditioning,
    kernel_probability,
    load_districts,
    serialize_districts,
)
from pairsub.data import parse_districts

from _synth import synthetic_districts

WELL_FORMED = """district_id,x,y,demand
a,0.0,0.0,5.0
b,1.5,2.0,3.25
c,-1.0,0.5,0.0
"""


class TestLoadDistricts:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "districts.csv"
        path.write_text(WELL_FORMED, encoding="utf-8")
        districts = load_districts(path)
        assert len(districts) == 3
        assert districts[0] == District("a", 0.0, 0.0, 5.0)
        assert districts[2].demand == 0.0

    def test_order_preserved(self):
        districts = parse_districts(WELL_FORMED)
        assert [d.id for d in districts] == ["a", "b", "c"]

    def test_duplicate_id(self):
        text = "district_id,x,y,demand\na,0,0,1\na,1,1,2\n"
        with pytest.raises(DuplicateId) as err:
            parse_districts(text)
        assert "'a'" in str(err.value)

    def test_negative_demand(self):
        text = "district_id,x,y,demand\na,0,0,-1\n"
        with pytest.raises(NegativeDemand):
            parse_districts(text)

    def test_bad_number_reports_row_and_column(self):
        text = "district_id,x,y,demand\na,0,zero,1\n"
        with pytest.raises(ParseError) as err:
            parse_districts(text)
        assert "row 2" in str(err.value) and "y" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("column", [1, 2, 3])
    def test_non_finite_number_rejected(self, cell, column):
        row = ["a", "0", "0", "1"]
        row[column] = cell
        with pytest.raises(ParseError) as err:
            parse_districts("district_id,x,y,demand\n" + ",".join(row) + "\n")
        assert f"column {column + 1}" in str(err.value)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"district_id,x,y,demand\n\xe9,0,0,1\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_districts(path)

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError) as raised:
            load_districts(path)
        assert (type(raised.value), str(raised.value)) == (
            ParseError, f"{path}: empty file, expected header district_id,x,y,demand")

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("district_id,x,y,demand\n\na,0,0,1\n\n\nb,1,1,2\n\n", encoding="utf-8")
        assert load_districts(path) == [District("a", 0.0, 0.0, 1.0),
                                        District("b", 1.0, 1.0, 2.0)]

    def test_wrong_header(self):
        with pytest.raises(ParseError):
            parse_districts("id,x,y,demand\na,0,0,1\n")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError):
            parse_districts("district_id,x,y,demand\na,0,0\n")

    def test_round_trip(self):
        rng = random.Random(0)
        districts = synthetic_districts(rng, 12)
        assert parse_districts(serialize_districts(districts)) == districts


class TestKernel:
    def test_zero_distance(self):
        assert kernel_probability(0.0, KernelConfig(2.0)) == 1.0

    def test_at_range(self):
        assert kernel_probability(1.0, KernelConfig(1.0)) == pytest.approx(
            math.exp(-1), abs=1e-12
        )

    def test_at_twice_range(self):
        assert kernel_probability(2.0, KernelConfig(1.0)) == pytest.approx(
            math.exp(-4), abs=1e-12
        )

    def test_strictly_decreasing(self):
        cfg = KernelConfig(1.5)
        values = [kernel_probability(d / 4, cfg) for d in range(12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            kernel_probability(-0.1, KernelConfig(1.0))

    @pytest.mark.parametrize("r_s", [1.0, 1e-300])
    def test_nan_distance_rejected(self, r_s):
        with pytest.raises(InvalidArgument) as raised:
            kernel_probability(math.nan, KernelConfig(r_s))
        assert (type(raised.value), str(raised.value)) == (
            InvalidArgument, "distance must be non-negative, got nan")

    def test_beyond_the_float_range_is_zero(self):
        # (d / r_s) ** 2 overflows a float here; 0.0 is the limit of exp(-d^2 / r_s^2)
        cfg = KernelConfig(1e-300)
        assert kernel_probability(math.sqrt(2.0), cfg) == 0.0
        assert kernel_probability(math.inf, KernelConfig(1.0)) == 0.0
        assert kernel_probability(0.0, cfg) == 1.0

    def test_rs_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelConfig(0.0)


class TestBuildCoverageInstance:
    def test_single_district_full_demand(self):
        spec = build_coverage_instance([District("a", 2.0, 3.0, 5.0)], KernelConfig(1.0))
        oracle = build_oracle(spec)
        assert oracle.evaluate([0]) == pytest.approx(5.0)

    def test_coincident_districts(self):
        districts = [District("a", 1.0, 1.0, 1.0), District("b", 1.0, 1.0, 1.0)]
        oracle = build_oracle(build_coverage_instance(districts, KernelConfig(1.0)))
        assert oracle.evaluate([0]) == pytest.approx(2.0)
        assert oracle.evaluate([1]) == pytest.approx(2.0)

    def test_far_points_get_zero_and_coincident_points_one(self):
        # at r_s = 1e-300 the squared ratio of every nonzero distance overflows
        districts = [District("a", 0.0, 0.0, 1.0), District("b", 1.0, 1.0, 2.0),
                     District("c", 0.0, 0.0, 3.0)]
        p = build_coverage_instance(districts, KernelConfig(1e-300)).probabilities
        assert p == [[1.0, 0.0, 1.0],
                     [0.0, 1.0, 0.0],
                     [1.0, 0.0, 1.0]]

    def test_tiny_range_isolates_own_district(self):
        districts = [District("a", 0.0, 0.0, 3.0), District("b", 5.0, 0.0, 7.0)]
        oracle = build_oracle(build_coverage_instance(districts, KernelConfig(0.01)))
        assert oracle.evaluate([0]) == pytest.approx(3.0, abs=1e-9)
        assert oracle.evaluate([1]) == pytest.approx(7.0, abs=1e-9)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_coverage_instance([], KernelConfig(1.0))

    def test_built_instance_properties(self):
        rng = random.Random(5)
        districts = synthetic_districts(rng, 6)
        oracle = build_oracle(build_coverage_instance(districts, KernelConfig(3.0)))
        assert check_monotone(oracle).holds
        assert check_submodular(oracle).holds
        assert check_supermodularity_of_conditioning(oracle).holds

    def test_pairwise_closed_forms(self):
        rng = random.Random(6)
        districts = synthetic_districts(rng, 5)
        cfg = KernelConfig(2.5)
        spec = build_coverage_instance(districts, cfg)
        oracle = build_oracle(spec)
        p = [
            [kernel_probability(math.hypot(s.x - e.x, s.y - e.y), cfg) for e in districts]
            for s in districts
        ]
        v = [d.demand for d in districts]
        for x in range(5):
            expected = sum(p[x][e] * v[e] for e in range(5))
            assert oracle.evaluate([x]) == pytest.approx(expected, rel=1e-9)
            for y in range(x + 1, 5):
                expected = sum(
                    (1 - (1 - p[x][e]) * (1 - p[y][e])) * v[e] for e in range(5)
                )
                assert oracle.evaluate([x, y]) == pytest.approx(expected, rel=1e-9)

    def test_probabilities_are_the_kernel_of_the_distance(self):
        districts = synthetic_districts(random.Random(8), 40)
        # coincident points, points mirrored through the origin into negative
        # coordinates, and points 0.27 apart, whose kernel at r_s = 0.01 is subnormal
        districts += [District(f"same{i}", d.x, d.y, 1.0) for i, d in enumerate(districts[:3])]
        districts += [District(f"mirror{i}", -d.x, -d.y, 2.0) for i, d in enumerate(districts[:6])]
        districts += [District("near0", -0.135, 0.0, 1.0), District("near1", 0.135, 0.0, 1.0)]
        for cfg in (KernelConfig(1.0), KernelConfig(0.37), KernelConfig(6.0),
                    KernelConfig(0.01), KernelConfig(1e-150)):
            spec = build_coverage_instance(districts, cfg)
            # positional: station s's row lists district e's probability at e's position
            assert spec.demands == [d.demand for d in districts]
            assert [len(row) for row in spec.probabilities] == [len(districts)] * len(districts)
            for s, row in zip(districts, spec.probabilities):
                for e, p in zip(districts, row):
                    expected = kernel_probability(math.hypot(s.x - e.x, s.y - e.y), cfg)
                    assert p.hex() == expected.hex()  # bit for bit
        subnormal = build_coverage_instance(districts, KernelConfig(0.01)).probabilities
        near0, near1 = len(districts) - 2, len(districts) - 1
        assert 0.0 < subnormal[near0][near1] < sys.float_info.min
