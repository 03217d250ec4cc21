"""Rational V' with a simple pole of positive integer residue r: past N = r the
product arcs span fewer classes than the loop equations admit.

Delta(X)^2 vanishes to order k(k-1) when k bodies meet at the pole, and the
residue there is nonzero only if k(k-1) <= k(r-1), so every arc word with
more than r bodies on the pole's circle integrates to zero and gives a zero
row of the ``iso`` matrix.  At N = r + 1 that row is present, the smallest
scaled singular value falls to rounding level, and ``iso`` exits 1 with its
error-bound message, which names the residue bound; at N = r both potentials
verify.
"""

import json

import pytest

from loopeq import Potential, basis_arcs
from loopeq.cli import main


def _pole_at_zero(r):
    """V' = x^2 + r/x = (x^3 + r)/x: d = 3, one circle about 0 and two elbows."""
    return {"kind": "rational", "R": [[str(r), "0"], ["0", "0"], ["0", "0"], ["1", "0"]],
            "D": [["0", "0"], ["1", "0"]]}


def _iso(tmp_path, r, N):
    path = tmp_path / f"pole{r}.json"
    path.write_text(json.dumps(_pole_at_zero(r)))
    out = tmp_path / f"iso{r}_{N}.json"
    code = main(["iso", "--potential", str(path), "--N", str(N), "--out", str(out)])
    return code, json.loads(out.read_text())


def _circle_index(r):
    V = Potential.rational([r, 0, 0, 1], [0, 1])
    (index,) = [i for i, arc in enumerate(basis_arcs(V)) if arc.label.startswith("circle")]
    return index


@pytest.mark.parametrize("r, min_sv", [(1, 0.79), (2, 0.196)])
def test_iso_verifies_at_n_equal_to_the_residue(tmp_path, capsys, r, min_sv):
    code, data = _iso(tmp_path, r, r)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert data["min_scaled_singular"] == pytest.approx(min_sv, abs=0.005)
    circle = _circle_index(r)
    # the words with all r bodies on the circle are not zero rows
    full = [row for comp, row in zip(data["rows"], data["entries"]) if comp[circle] == r]
    assert full and all(max(abs(complex(*z)) for z in row) > 1 for row in full)


@pytest.mark.parametrize("r", [1, 2])
def test_iso_past_the_residue_is_singular_and_says_so(tmp_path, capsys, r):
    code, data = _iso(tmp_path, r, r + 1)
    assert code == 1
    err = capsys.readouterr().err
    assert "within its error bound" in err
    assert err.endswith(f"; arc words with more than {r} bodies on the circle about the pole 0+0j"
                        " integrate to zero (README \"Caps\")\n")
    assert err.count("\n") == 1
    assert data["min_scaled_singular"] < 1e-15
    circle = _circle_index(r)
    rows = [(comp, row, err) for comp, row, err in zip(data["rows"], data["entries"], data["errors"])
            if comp[circle] > r]
    assert rows  # N = r + 1 bodies all on the circle
    for comp, row, err in rows:
        for z, e in zip(row, err):
            assert abs(complex(*z)) <= e, (comp, z, e)
    # every other row is far from zero
    others = [row for comp, row in zip(data["rows"], data["entries"]) if comp[circle] <= r]
    assert all(max(abs(complex(*z)) for z in row) > 1 for row in others)
