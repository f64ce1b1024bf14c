"""The text of ``visage --help`` and of each subcommand's ``--help``, pinned.

Help is built from the parser alone, so a change to how the command line
finds its option choices (``--group-by`` lists ``visage.SCHEMES``) must
leave it as it was. Recorded with Python 3.11's argparse at 80 columns.
"""

from __future__ import annotations

import pytest

from visage.cli import main

HELP = {
    "": """\
usage: visage [-h] [--version]
              {km,cox,metrics,train,simulate,balance,attention} ...

Survival analysis for facial-image biomarkers.

positional arguments:
  {km,cox,metrics,train,simulate,balance,attention}
    km                  Kaplan-Meier curves per stratum with log-rank tests
    cox                 univariate and adjusted Cox fits
    metrics             concordance and time-dependent AUC for a marker
    train               train the risk or age head on embeddings
    simulate            generate a synthetic cohort with ground truth
    balance             age-balanced resampling indices
    attention           project attention grids onto a face mesh

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "km": """\
usage: visage km [-h] [--cohort COHORT] [--schema SCHEMA] --out OUT
                 [--seed SEED] [--config CONFIG]
                 [--group-by {none,fad_bands,fad_ge5,fad_le_minus5,risk_quartiles,risk_deciles,risk_half}]
                 [--horizons HORIZONS]

options:
  -h, --help            show this help message and exit
  --cohort COHORT       cohort CSV path
  --schema SCHEMA       schema-mapping JSON path
  --out OUT             output directory
  --seed SEED           master seed (default 0)
  --config CONFIG       JSON file of option values, read before the flags
  --group-by {none,fad_bands,fad_ge5,fad_le_minus5,risk_quartiles,risk_deciles,risk_half}
                        stratification scheme (default none)
  --horizons HORIZONS   comma-separated day horizons for point estimates
                        (default 913,1826)
""",
    "cox": """\
usage: visage cox [-h] [--cohort COHORT] [--schema SCHEMA] --out OUT
                  [--seed SEED] [--config CONFIG] [--biomarker BIOMARKER]
                  [--adjusters ADJUSTERS] [--screen] [--alpha ALPHA]
                  [--ties {efron,breslow}]

options:
  -h, --help            show this help message and exit
  --cohort COHORT       cohort CSV path
  --schema SCHEMA       schema-mapping JSON path
  --out OUT             output directory
  --seed SEED           master seed (default 0)
  --config CONFIG       JSON file of option values, read before the flags
  --biomarker BIOMARKER
                        covariate spec, e.g. fad:per:10 or risk_scaled:ge:0.5
  --adjusters ADJUSTERS
                        comma-separated covariate specs
  --screen              screen adjusters univariately before the adjusted fit
  --alpha ALPHA         screening threshold (default 0.05)
  --ties {efron,breslow}
""",
    "metrics": """\
usage: visage metrics [-h] [--cohort COHORT] [--schema SCHEMA] --out OUT
                      [--seed SEED] [--config CONFIG]
                      [--marker {risk,fad,predicted_age,chrono_age}]
                      [--horizons HORIZONS]

options:
  -h, --help            show this help message and exit
  --cohort COHORT       cohort CSV path
  --schema SCHEMA       schema-mapping JSON path
  --out OUT             output directory
  --seed SEED           master seed (default 0)
  --config CONFIG       JSON file of option values, read before the flags
  --marker {risk,fad,predicted_age,chrono_age}
  --horizons HORIZONS   comma-separated day horizons (default 91,182,365,730)
""",
    "train": """\
usage: visage train [-h] [--cohort COHORT] [--schema SCHEMA] --out OUT
                    [--seed SEED] [--config CONFIG] [--target {risk,age}]
                    [--learning-rate LEARNING_RATE]
                    [--weight-decay WEIGHT_DECAY] [--batch-size BATCH_SIZE]
                    [--epochs EPOCHS] [--smooth-lambda SMOOTH_LAMBDA]
                    [--validation-fraction VALIDATION_FRACTION]
                    [--pair-loss {logistic,hinge}] [--hidden HIDDEN]

options:
  -h, --help            show this help message and exit
  --cohort COHORT       cohort CSV path
  --schema SCHEMA       schema-mapping JSON path
  --out OUT             output directory
  --seed SEED           master seed (default 0)
  --config CONFIG       JSON file of option values, read before the flags
  --target {risk,age}
  --learning-rate LEARNING_RATE
  --weight-decay WEIGHT_DECAY
  --batch-size BATCH_SIZE
  --epochs EPOCHS
  --smooth-lambda SMOOTH_LAMBDA
  --validation-fraction VALIDATION_FRACTION
  --pair-loss {logistic,hinge}
  --hidden HIDDEN       hidden layer width (default none)
""",
    "simulate": """\
usage: visage simulate [-h] --out OUT [--seed SEED] [--config CONFIG] [--n N]
                       [--beta BETA] [--baseline-hazard BASELINE_HAZARD]
                       [--censor CENSOR] [--covariates COVARIATES]
                       [--embedding-dim EMBEDDING_DIM]
                       [--embedding-weights EMBEDDING_WEIGHTS] [--exact-times]

options:
  -h, --help            show this help message and exit
  --out OUT             output directory
  --seed SEED           master seed (default 0)
  --config CONFIG       JSON file of option values, read before the flags
  --n N                 number of subjects (default 1000)
  --beta BETA           comma-separated true coefficients
  --baseline-hazard BASELINE_HAZARD
  --censor CENSOR       none | uniform:T | exponential:rate | admin:T (default
                        none)
  --covariates COVARIATES
                        semicolon-separated field:dist:params, e.g.
                        sex:bernoulli:0.5
  --embedding-dim EMBEDDING_DIM
  --embedding-weights EMBEDDING_WEIGHTS
                        comma-separated true embedding weights
  --exact-times         keep continuous times instead of rounding up to days
""",
    "balance": """\
usage: visage balance [-h] [--cohort COHORT] [--schema SCHEMA] --out OUT
                      [--seed SEED] [--config CONFIG] [--mode {factors,bins}]
                      [--bin-width BIN_WIDTH] [--target TARGET]

options:
  -h, --help            show this help message and exit
  --cohort COHORT       cohort CSV path
  --schema SCHEMA       schema-mapping JSON path
  --out OUT             output directory
  --seed SEED           master seed (default 0)
  --config CONFIG       JSON file of option values, read before the flags
  --mode {factors,bins}
  --bin-width BIN_WIDTH
  --target TARGET       records per bin (default 200)
""",
    "attention": """\
usage: visage attention [-h] --out OUT [--seed SEED] [--config CONFIG]
                        [--grid GRID] [--mesh MESH] [--landmarks LANDMARKS]
                        [--subdivide SUBDIVIDE]

options:
  -h, --help            show this help message and exit
  --out OUT             output directory
  --seed SEED           master seed (default 0)
  --config CONFIG       JSON file of option values, read before the flags
  --grid GRID           comma-separated attention grid CSVs (7x7 or 112x112)
  --mesh MESH           mesh OBJ path
  --landmarks LANDMARKS
                        vertex_index,x,y CSV path
  --subdivide SUBDIVIDE
                        midpoint subdivision iterations (default 1)
""",
}


def test_help_text_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for command, expected in HELP.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text == expected, command
