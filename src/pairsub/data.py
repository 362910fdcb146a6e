"""District CSV ingestion and probabilistic-coverage instance construction.

The CSV boundary is one demand column per file: `district_id,x,y,demand`
with plain decimal numbers.  Coordinates are abstract planar units under
the Euclidean metric; any map projection happens upstream.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from sys import float_info

from .errors import DuplicateId, EmptyInput, InvalidArgument, NegativeDemand, ParseError
from .functions import ProbabilisticCoverageSpec

HEADER = ("district_id", "x", "y", "demand")


@dataclass(frozen=True)
class District:
    id: str
    x: float
    y: float
    demand: float


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel range; r_s sets the distance at which coverage
    probability drops to 1/e."""

    r_s: float

    def __post_init__(self):
        if isinstance(self.r_s, bool) or not isinstance(self.r_s, (int, float)):
            raise InvalidArgument(f"r_s must be a number, got {self.r_s!r}")
        if not 0 < self.r_s <= float_info.max:  # a larger int cannot divide a float
            raise InvalidArgument(f"r_s must be positive and finite, got {self.r_s}")


def kernel_probability(d: float, cfg: KernelConfig) -> float:
    """exp(-d^2 / r_s^2); 1 at zero distance, decreasing to 0.0 far away."""
    if not d >= 0:  # NaN too
        raise InvalidArgument(f"distance must be non-negative, got {d}")
    q = d / cfg.r_s  # exp(-q^2) is 0.0 from q = 28 on; q^2 overflows above 1.3e154
    return math.exp(-(q ** 2)) if q < 1e154 else 0.0


def _parse_rows(reader, source: str) -> list[District]:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{source}: empty file, expected header "
                         f"{','.join(HEADER)}") from None
    if tuple(h.strip() for h in header) != HEADER:
        raise ParseError(
            f"{source}: row 1: expected header {','.join(HEADER)}, "
            f"got {','.join(header)}"
        )
    districts = []
    seen = set()
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(HEADER):
            raise ParseError(
                f"{source}: row {row_no}: expected {len(HEADER)} columns, "
                f"got {len(row)}"
            )
        district_id = row[0].strip()
        numbers = []
        for col_no, (name, cell) in enumerate(zip(HEADER[1:], row[1:]), start=2):
            try:
                number = float(cell)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                raise ParseError(
                    f"{source}: row {row_no}, column {col_no} ({name}): "
                    f"not a finite number: {cell!r}"
                )
            numbers.append(number)
        x, y, demand = numbers
        if district_id in seen:
            raise DuplicateId(f"{source}: row {row_no}: duplicate district_id "
                              f"{district_id!r}")
        if demand < 0:
            raise NegativeDemand(
                f"{source}: row {row_no}: negative demand {demand} for "
                f"{district_id!r}"
            )
        seen.add(district_id)
        districts.append(District(district_id, x, y, demand))
    return districts


def load_districts(path) -> list[District]:
    """Read districts from a CSV file, preserving row order."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            return _parse_rows(csv.reader(handle), str(path))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def parse_districts(text: str, source: str = "<string>") -> list[District]:
    return _parse_rows(csv.reader(io.StringIO(text)), source)


def serialize_districts(districts) -> str:
    """CSV text that load_districts parses back to the same list."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    for d in districts:
        writer.writerow([d.id, repr(d.x), repr(d.y), repr(d.demand)])
    return out.getvalue()


def save_districts(path, districts) -> None:
    Path(path).write_text(serialize_districts(districts), encoding="utf-8")


def build_coverage_instance(districts, cfg: KernelConfig) -> ProbabilisticCoverageSpec:
    """Probabilistic-coverage spec with one candidate station per district.

    Stations sit at the district centroids and reach district e with
    probability exp(-d(x,e)^2/r_s^2).  The spec is positional: demands and
    each station's row are lists in file order, so station and district ids
    are positions.  District ids are checked for repeats when the CSV is
    parsed, and the spec does not keep them.  The kernel is symmetric bit for
    bit, since math.dist takes |a - b| per coordinate, so each value is
    computed once: a row copies its entries for the stations before it from
    their rows and computes only the rest.
    """
    districts = list(districts)
    if not districts:
        raise EmptyInput("no districts supplied")
    points = [(e.x, e.y) for e in districts]
    r_s, exp, dist = cfg.r_s, math.exp, math.dist
    rows = []
    for i, s in enumerate(points):
        row = list(map(itemgetter(i), rows))  # p(e, x) == p(x, e) for each e before x
        try:  # kernel_probability(dist(s, e), cfg) inlined; the same expression
            row += [exp(-((dist(s, e) / r_s) ** 2)) for e in points[i:]]
        except OverflowError:
            row += [kernel_probability(dist(s, e), cfg) for e in points[i:]]
        rows.append(row)
    return ProbabilisticCoverageSpec(demands=[d.demand for d in districts], probabilities=rows)
