import numpy as np

from spqs.harness import VerificationReport, check_quasi_linearity
from spqs.quasistates import maslov_qs
from spqs.report import report_to_text, reports_to_csv, reports_to_text
from spqs.symplectic import SymplecticSpace

sp2 = SymplecticSpace(2)


def _hand_reports():
    """Two reports built by hand: no numerics behind them, so the expected
    text is the same on every BLAS."""
    r1 = VerificationReport(
        check_name='fit[a,b] "x"',
        trials=2,
        max_defect=1 / 3,
        tolerance_used=0.1,
        passed=False,
        seed=7,
        fitted_parameters={
            "c_fit": 1e-300,
            "converged": True,
            "weights": [0.5, 2],
            "inner": {"C": np.array([[1.0, -0.5], [0.1, 2.0]]), "rank": np.int64(3)},
        },
        per_trial_records=(
            {"trial": 0, "defect": 0.1, "ok": True},
            {"trial": 1, "defect": 1 / 3, "ok": False, "M": np.eye(2)},
        ),
    )
    r2 = VerificationReport("ad-invariance", 1, 1e-300, 0.1, True, 0)
    return r1, r2


R1_TEXT = """\
check_name: fit[a,b] "x"
trials: 2
max_defect: 0.3333333333333333
tolerance_used: 0.1
pass: false
seed: 7
fitted_parameters:
  c_fit: 1e-300
  converged: true
  weights:
    - 0.5
    - 2
  inner:
    C: !matrix 2 2
      1.0 -0.5
      0.1 2.0
    rank: 3
per_trial_records:
  -
    trial: 0
    defect: 0.1
    ok: true
  -
    trial: 1
    defect: 0.3333333333333333
    ok: false
    M: !matrix 2 2
      1.0 0.0
      0.0 1.0
"""

R2_TEXT = """\
check_name: ad-invariance
trials: 1
max_defect: 1e-300
tolerance_used: 0.1
pass: true
seed: 0
"""

CSV = '''\
check_name,record,field,value
"fit[a,b] ""x""",summary,trials,2
"fit[a,b] ""x""",summary,max_defect,0.3333333333333333
"fit[a,b] ""x""",summary,tolerance_used,0.1
"fit[a,b] ""x""",summary,seed,7
"fit[a,b] ""x""",summary,pass,false
"fit[a,b] ""x""",0,trial,0
"fit[a,b] ""x""",0,defect,0.1
"fit[a,b] ""x""",0,ok,true
"fit[a,b] ""x""",1,trial,1
"fit[a,b] ""x""",1,defect,0.3333333333333333
"fit[a,b] ""x""",1,ok,false
ad-invariance,summary,trials,1
ad-invariance,summary,max_defect,1e-300
ad-invariance,summary,tolerance_used,0.1
ad-invariance,summary,seed,0
ad-invariance,summary,pass,true
'''


def test_text_golden():
    r1, r2 = _hand_reports()
    assert report_to_text(r1) == R1_TEXT
    assert report_to_text(r2) == R2_TEXT


def test_text_stream_golden():
    assert reports_to_text(list(_hand_reports())) == R1_TEXT + "\n---\n" + R2_TEXT


def test_csv_golden():
    assert reports_to_csv(list(_hand_reports())) == CSV


def test_serialization_is_deterministic():
    (r1,) = check_quasi_linearity([(maslov_qs(), 1e-2)], sp2, "common-frame", 6, 3)
    (r2,) = check_quasi_linearity([(maslov_qs(), 1e-2)], sp2, "common-frame", 6, 3)
    assert report_to_text(r1) == report_to_text(r2)


def test_csv_shape():
    (r,) = check_quasi_linearity([(maslov_qs(), 1e-2)], sp2, "common-frame", 3, 4)
    csv = reports_to_csv([r])
    lines = csv.strip().splitlines()
    assert lines[0] == "check_name,record,field,value"
    assert any(",summary,pass," in ln for ln in lines)
    assert any(",0,defect," in ln for ln in lines)
