"""provlens: identity-behavior anomaly detection over provenance graphs.

Pipeline: parse audit events into aggregated provenance graphs, learn node
embeddings that bind fine-grained identities to behavior, profile benign
identities as hyperspheres, flag identity-consistency violations, and drive a
four-agent investigation loop that turns alerts into an incident report.
"""

import os

# Trained weights depend on how many threads BLAS splits a product over, so
# byte-identical replay needs a fixed count. These defaults must be set before
# numpy is first imported; a value the caller sets still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
