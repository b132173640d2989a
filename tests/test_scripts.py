"""The experiment scripts run end to end at tiny sizes."""
import csv
import subprocess
import sys
from pathlib import Path

from test_acceptance import pretraining_utility


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> None:
    subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                   capture_output=True, text=True, timeout=600, check=True)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_ablation_writes_csv(tmp_path):
    run_script("run_ablation.py", "--out", str(tmp_path), "--n", "8", "--pretrain-epochs", "1",
               "--finetune-epochs", "1", "--k-folds", "2")
    rows = read_rows(tmp_path / "ablation.csv")
    cells = {(r["mask_ratio"], r["attention"], r["pooling"]) for r in rows}
    assert len(rows) == len(cells) == 8
    assert all(0.0 <= float(r["mean_auroc"]) <= 1.0 for r in rows)
    # one epoch: the last epoch is the best, so both means agree
    assert all(r["mean_last_epoch_auroc"] == r["mean_auroc"] for r in rows)


def test_pretrain_vs_scratch_writes_csv(tmp_path):
    """The script's table is criterion 5's experiment run at the given sizes."""
    run_script("pretrain_vs_scratch.py", "--out", str(tmp_path / "script"), "--pool-size", "8",
               "--task-size", "12", "--pretrain-epochs", "1", "--seeds", "1")
    rows = read_rows(tmp_path / "script" / "comparison.csv")
    assert [r["seed"] for r in rows] == ["0", "mean"]
    for r in rows:
        assert 0.0 <= float(r["pretrained_auroc"]) <= 1.0
        assert 0.0 <= float(r["scratch_auroc"]) <= 1.0
    (pre,), (scratch,) = pretraining_utility(tmp_path / "direct", pool_size=8, task_size=12,
                                             pretrain_epochs=1, seeds=1)
    assert rows[0] == {"seed": "0", "pretrained_auroc": f"{pre:.4f}",
                       "scratch_auroc": f"{scratch:.4f}"}
    ckpt = Path("pretrained") / "checkpoint.bin"
    assert (tmp_path / "script" / ckpt).read_bytes() == (tmp_path / "direct" / ckpt).read_bytes()
