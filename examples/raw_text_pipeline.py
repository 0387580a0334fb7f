"""End-to-end raw-text pipeline: tokenize → vectorize → SRDA → persist.

Run with::

    python examples/raw_text_pipeline.py

Replays the paper's 20Newsgroups preprocessing on synthetic raw
documents — stop-word removal, suffix stripping, term-frequency
vectors normalized to 1 — then trains SRDA on the sparse matrix,
prints a per-class report, inspects which terms a sparse variant
selects, and round-trips the model through the .npz serializer.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import SRDA, SolverConfig, SparseSRDA
from repro.datasets.vectorizer import TfVectorizer, make_raw_documents
from repro.eval.metrics import classification_report, error_rate
from repro.io import load_model, save_model


def main() -> None:
    # synthetic raw documents with topical vocabulary + stop-word noise
    documents, labels = make_raw_documents(
        n_docs=600, n_classes=4, words_per_doc=80, seed=23
    )
    print("raw document sample:")
    print(" ", documents[0][:100], "...")

    split = 400
    vectorizer = TfVectorizer(min_df=2, max_df_ratio=0.6)
    X_train = vectorizer.fit_transform(documents[:split])
    X_test = vectorizer.transform(documents[split:])
    y_train, y_test = labels[:split], labels[split:]
    print(f"\nvocabulary: {vectorizer.n_features} terms after stop-word "
          f"removal and suffix stripping")
    print(f"train matrix: {X_train.shape}, "
          f"{X_train.mean_nnz_per_row():.1f} distinct terms/doc")

    # the paper's sparse path: SRDA + LSQR
    model = SRDA(
        alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15, tol=0.0
    )
    model.fit(X_train, y_train)
    predictions = model.predict(X_test)
    print(f"\ntest error: {100 * error_rate(y_test, predictions):.1f}%")
    print(classification_report(
        y_test, predictions, 4,
        class_names=[f"topic-{k}" for k in range(4)],
    ))

    # the sparse variant tells you *which terms* discriminate
    sparse_model = SparseSRDA(alpha=0.002, l1_ratio=1.0, max_iter=300,
                              tol=1e-5).fit(X_train, y_train)
    index_to_term = {v: k for k, v in vectorizer.vocabulary_.items()}
    selected = sparse_model.selected_features()
    print(f"\nsparse SRDA keeps {selected.size} of "
          f"{vectorizer.n_features} terms "
          f"(sparsity {sparse_model.sparsity_:.2f}); a few of them:")
    print(" ", ", ".join(index_to_term[i] for i in selected[:10]))

    # persist and restore
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(model, Path(tmp) / "srda_text")
        restored = load_model(path)
        agreement = np.mean(restored.predict(X_test) == predictions)
        print(f"\nsaved to {path.name}; "
              f"restored model agreement: {agreement:.3f}")


if __name__ == "__main__":
    main()
