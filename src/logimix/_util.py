"""Shared helpers: argument checks, seeded random streams, stable log forms, atomic file writes."""

import numbers
import os
import tempfile
from functools import reduce

import numpy as np


def _require_counts(**counts):
    """Raise ValueError naming the first count that is not an integer >= 1; a bool is not one."""
    for name, value in counts.items():
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1):
            raise ValueError("%s must be an integer >= 1, got %r" % (name, value))


def _require_index(name, value):
    """``value`` as an int; ValueError naming ``name`` unless it is an integer >= 0 (numpy's
    too), not a float, string or bool that ``int`` would convert."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0):
        raise ValueError("%s must be an integer >= 0, got %r" % (name, value))
    return int(value)


def _require_seed(seed):
    """``seed`` as an int; ValueError unless it is an integer in [0, 2**64), not a bool."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError("seed must be an integer, got %r" % (seed,))
    if seed < 0 or seed >= 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


def rng_from_seed(seed):
    """Counter-based generator (Philox) keyed by a non-negative 64-bit integer seed.

    Every stochastic operation in the package takes an explicit seed and builds
    its generator through this function, so results are reproducible bit-for-bit.
    """
    return np.random.Generator(np.random.Philox(_require_seed(seed)))


def _child_seeds(sequence, n):
    """One seed from each of the ``n`` next children of SeedSequence ``sequence``."""
    return [int(child.generate_state(1, np.uint64)[0]) for child in sequence.spawn(n)]


def spawn_seeds(seed, n):
    """Derive ``n`` independent child seeds from ``seed``, checked as ``rng_from_seed`` checks it.

    Uses the SeedSequence spawning protocol, so child streams are independent
    of each other and of the parent, and the derivation is stable across runs
    and platforms.
    """
    return _child_seeds(np.random.SeedSequence(_require_seed(seed)), n)


def spawn_seed_chunks(seed, n, size):
    """``spawn_seeds(seed, n)`` as consecutive lists of at most ``size`` seeds each.

    A list's seeds are spawned only when it is reached, so memory does not grow
    with ``n``; ``SeedSequence.spawn`` continues from the children already
    spawned, so the seeds are those of ``spawn_seeds``.  ``seed`` is checked
    at the call.
    """
    sequence = np.random.SeedSequence(_require_seed(seed))
    return (_child_seeds(sequence, min(size, n - lo)) for lo in range(0, n, size))


def open_uniform(rng, size=None):
    """Uniform draws strictly inside (0, 1).

    Returns values of the form (k + 0.5) / 2**53, avoiding both endpoints so
    that downstream quantile transforms never see 0 or 1.
    """
    k = rng.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (k.astype(np.float64) + 0.5) * 2.0**-53


_MINUS_MAX_FLOAT = -np.finfo(float).max


def log_sum_exp(a):
    """log(sum_k exp(a[k, ...])) over the leading axis, with the terms it sums.

    ``a`` has shape (s, ...).  Returns ``(lse, terms, total)``: with m the
    maximum over the leading axis, ``terms`` = exp(a - m) has shape (s, ...),
    ``total`` is their sum and ``lse`` = m + log(total), shape (...).  The sum
    runs as s - 1 elementwise passes, left to right, whatever the shape, so
    the whole is one exp and one log per value.  A position where every a_k
    is -inf is shifted by -max float instead of m, so it gives terms and
    total 0 and lse -inf; the log of that 0 raises numpy's divide-by-zero
    flag, which callers that meet such positions silence.  With s = 1, lse is
    a[0].
    """
    m = a.max(axis=0, initial=_MINUS_MAX_FLOAT)
    terms = np.exp(a - m)
    total = reduce(np.add, terms)
    return m + np.log(total), terms, total


def log1p_sum_exp_neg(z):
    """log(1 + sum_k exp(-z[k, ...])) over the leading axis, without overflow.

    ``z`` is coordinate-major, shape (p, ...), and the result has shape (...).
    Subtracts max(0, max_k(-z_k)) before exponentiating, so standardized
    residuals far beyond +-700 stay finite.  The maximum and the sum run as
    p - 1 elementwise passes, left to right: the order of numpy's own sum
    over a short trailing axis (p <= 7), so the values match it bit for bit
    there.
    """
    neg = -np.asarray(z, dtype=float)
    m = np.maximum(reduce(np.maximum, neg), 0.0)
    return m + np.log(np.exp(-m) + reduce(np.add, np.exp(neg - m)))


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` via a temp file + rename in the same directory."""
    write_texts_atomic([(path, [text])])


def write_texts_atomic(outputs):
    """Write each ``(path, chunks)`` of ``outputs`` via a temp file + rename in its directory.

    ``chunks`` is an iterable of strings, written one after another with
    ``writelines``; a generator that yields a block of rows at a time keeps the
    text in memory to one block.  Every temp file is written before the first
    rename, so if any destination cannot be created or written, or a chunk
    iterable raises, none is touched and no temp file is left.  An OSError
    names the destination it concerns, not the temp file.
    """
    staged = []
    path = None
    try:
        for path, chunks in outputs:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
            staged.append((tmp, path))
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
