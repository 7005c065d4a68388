"""The kernels subcommand: it computes every n before it writes a report,
and its reports are the bytes of one SVD per entry-pair block."""

import numpy as np

from stardelta import transforms as tr
from stardelta.cli import main


def test_kernels_failing_part_way_exits_2_with_no_report(monkeypatch, tmp_path, capsys):
    # the n = 3 decomposition succeeds and n = 4 runs out of memory: the
    # run writes no report at all, like the other subcommands
    decompose = tr.compute_kernel_decomposition

    def fails_at_4(n, **kwargs):
        if n == 4:
            raise MemoryError("Unable to allocate the n = 4 operator")
        return decompose(n, **kwargs)

    monkeypatch.setattr(tr, "compute_kernel_decomposition", fails_at_4)
    outdir = tmp_path / "d"
    assert main(["kernels", "--n", "3,4", "--out", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate the n = 4 operator\n"
    assert captured.out == "" and not (outdir / "kernels_n3.json").exists()


def test_kernel_reports_take_one_svd_per_distinct_block(monkeypatch, tmp_path, capsys):
    # each distinct Q_pm block is decomposed once and gathered per entry
    # pair; the reports, bases included, are the bytes of one SVD per entry
    # pair, which taking every pair as a kind of its own gives
    def run(tag):
        for basis in (tr.EDGE, tr.SPECTRAL):
            out = tmp_path / tag / basis
            assert main(["kernels", "--n", "3..8", "--include-bases", "--basis", basis, "--out", str(out)]) == 0
        return {n: tr.compute_kernel_decomposition(n) for n in range(9, 17)}

    assert all(tr._block_kinds(np.diag(tr.s_matrix(n, tr.SPECTRAL)))[0].size == 2 for n in range(3, 17))
    kinds = run("kinds")
    monkeypatch.setattr(tr, "_block_kinds", lambda s: (s, np.arange(s.size ** 2)))
    pairs = run("pairs")
    for basis in (tr.EDGE, tr.SPECTRAL):
        names = sorted(p.name for p in (tmp_path / "kinds" / basis).iterdir())
        assert names == sorted(f"kernels_n{n}.json" for n in range(3, 9))
        for name in names:
            got, want = (tmp_path / tag / basis / name for tag in ("kinds", "pairs"))
            assert got.read_bytes() == want.read_bytes()
    for n, got in kinds.items():
        assert got.to_dict() == pairs[n].to_dict()
        assert all(got.bases[key].tobytes() == pairs[n].bases[key].tobytes() for key in got.bases)
