"""The kernels subcommand computes every n before it writes a report."""

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
