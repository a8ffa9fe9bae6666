"""The verify suites as library calls print what the command line prints."""

import pytest

from grslice import chern, cli, verify
from grslice.cartan import CartanDatum, Chamber, Coweight
from grslice.cli import CACHE_ENV, main
from grslice.slices import SliceSpec, adjacent_pairs
from grslice.stab_a1 import RestrictionMatrix

# (type, rank, lambda, mu)
SLICES = [("A", 1, (1,) * 5, (1,)), ("A", 2, (1, 1, 1), (0, 0)), ("D", 4, (1, 1), (0, 1, 0, 0))]


def _csv(values) -> str:
    return ",".join(map(str, values))


@pytest.mark.parametrize("letter, rank, lam, mu", SLICES,
                         ids=[f"{letter}{rank}-{_csv(lam)}" for letter, rank, lam, _ in SLICES])
def test_runner_document_is_what_the_command_line_prints(capsys, tmp_path, monkeypatch,
                                                         letter, rank, lam, mu):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    datum = CartanDatum(letter, rank)
    spec = SliceSpec(datum, lam, Coweight(mu))
    ch = Chamber.dominant(datum)
    flags = ["--type", letter, "--rank", str(rank), "--lambda", _csv(lam), "--mu", _csv(mu)]
    suites = [name for name in verify.SUITES
              if rank == 1 or name not in verify.RANK_ONE_SUITES]
    for which in ["all"] + suites:
        document = verify.run(spec, ch, None, which)
        assert main(["verify", which] + flags) == 0
        assert capsys.readouterr().out == cli.encode_json(document) + "\n"
        if which != "all":
            assert document["checks"] == [getattr(verify, which)(spec, ch, None)]


@pytest.mark.parametrize("letter, rank, lam, mu", SLICES,
                         ids=[f"{letter}{rank}-{_csv(lam)}" for letter, rank, lam, _ in SLICES])
def test_oracle_signs_each_adjacent_pair_once(monkeypatch, letter, rank, lam, mu):
    # the matrices of L_0..L_l share one table of lowering moves
    signed = []
    real = chern.sigma_sign

    def counted(spec, p, q, *args):
        signed.append((p, q))
        return real(spec, p, q, *args)

    monkeypatch.setattr(chern, "sigma_sign", counted)
    datum = CartanDatum(letter, rank)
    spec = SliceSpec(datum, lam, Coweight(mu))
    ch = Chamber.dominant(datum)
    assert verify.oracle(spec, ch)["ok"]
    assert signed == list(adjacent_pairs(spec, ch))


def test_rank_one_suite_on_a_higher_rank_slice_raises():
    datum = CartanDatum("A", 2)
    spec = SliceSpec(datum, (1, 1, 1), Coweight((0, 0)))
    for which in verify.RANK_ONE_SUITES:
        with pytest.raises(ValueError, match=f"^verify {which} requires a rank-one slice$"):
            verify.run(spec, Chamber.dominant(datum), None, which)


def test_verify_all_builds_each_restriction_matrix_once(monkeypatch):
    # recursion and duality both read the matrices of the chamber and of its
    # opposite: one build each per job
    built = []
    init = RestrictionMatrix.__init__

    def counting(self, spec, chamber, *args):
        built.append(chamber)
        init(self, spec, chamber, *args)

    monkeypatch.setattr(RestrictionMatrix, "__init__", counting)
    datum = CartanDatum("A", 1)
    ch = Chamber.dominant(datum)
    document = verify.run(SliceSpec(datum, (1,) * 6, Coweight((0,))), ch, None, "all")
    assert document["ok"]
    assert built == [ch, -ch]
