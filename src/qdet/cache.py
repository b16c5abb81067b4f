"""Optional on-disk cache for computed ideal spans.

Spans are stored as files named by a content hash of the defining data
(shape, minor, degree, format version).  A file holds two lines of JSON:
a header with the format, the key, the rank and the sha256 of the second
line, then the encoded rows.  A file whose header, digest or row count
does not match is a miss.  The cache directory is the one given to
set_cache_dir (run_workbench passes --cache); without one, caching is a
no-op.
"""

import hashlib
import json
import os
import tempfile
from fractions import Fraction

from .scalars import LaurentScalar

#: bump when the serialized layout changes
FORMAT = 2

_dir = None


def set_cache_dir(path):
    """Directory for stored spans; None disables."""
    global _dir
    _dir = path


def cache_dir():
    return _dir


def _path_for(base, key):
    digest = hashlib.sha256(repr((FORMAT,) + tuple(key)).encode()).hexdigest()
    return os.path.join(base, digest + ".json")


def _encode_rows(rows):
    out = []
    for row in rows:
        enc = []
        for col in sorted(row):
            terms = [[e, c.numerator, c.denominator]
                     for e, c in sorted(row[col].terms.items())]
            enc.append([col, terms])
        out.append(enc)
    return out


def _decode_rows(data):
    rows = []
    for enc in data:
        row = {}
        for col, terms in enc:
            row[int(col)] = LaurentScalar(
                {int(e): int(n) if d == 1 else Fraction(int(n), int(d))
                 for e, n, d in terms})
        rows.append(row)
    return rows


def _digest(body):
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def load_rows(key):
    """Stored rows for the key, or None on any miss or decode problem.

    The rows are returned only when the header matches the key and the
    format, the digest matches the stored rows and their number matches
    the stored rank.
    """
    base = cache_dir()
    if not base:
        return None
    path = _path_for(base, key)
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = json.loads(fh.readline())
            body = fh.readline().rstrip("\n")
        if (header.get("format") != FORMAT
                or header.get("key") != repr(tuple(key))
                or header.get("sha256") != _digest(body)):
            return None
        rows = _decode_rows(json.loads(body))
    except (OSError, AttributeError, KeyError, TypeError, ValueError):
        return None
    if header.get("rank") != len(rows):
        return None
    return rows


def store_rows(key, rows):
    """Persist echelon rows for the key (their number is the rank).

    Silently does nothing without a cache dir, or when the directory
    cannot be created or written.
    """
    base = cache_dir()
    if not base:
        return
    body = json.dumps(_encode_rows(rows), separators=(",", ":"))
    header = {"format": FORMAT, "key": repr(tuple(key)), "rank": len(rows),
              "sha256": _digest(body)}
    tmp = None
    try:
        os.makedirs(base, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            fh.write(body + "\n")
        os.replace(tmp, _path_for(base, key))
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
