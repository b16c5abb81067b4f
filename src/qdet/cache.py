"""Optional on-disk cache for computed ideal spans.

Spans are stored as files named by a content hash of the defining data
(shape, minor, degree, format version).  A file holds two lines of JSON:
a header with the format, the key, the rank and the sha256 of the second
line, then the encoded rows.  A file whose header, digest or row count
does not match is a miss.  The cache directory is the one given to
set_cache_dir, which factor.begin_run calls at the start of each run
with the run's --cache (run_workbench); without one, caching is a no-op.

An ideal span's key is ("ideal", m', n', rows', cols', d) of gamma' on
its southeast rectangle R (see the factor module), so every gamma with
the same gamma' shares one file; 4x4 2,3|2,3 reads 3x3 1,2|1,2's.  The
rows under a key are those earlier versions stored under the same key:
a key that names the whole shape (gamma with row 1 and column 1) was
built the same way then, and no other key is read now.  So FORMAT stays.
"""

import hashlib
import json
import os
import tempfile

#: bump when the serialized layout changes
FORMAT = 3

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
    """Each integer row (see linalg) as one flat list: column, exponent,
    coefficient, for every key in sorted order."""
    return [[x for key in sorted(row) for x in (key[0], key[1], row[key])]
            for row in rows]


def _decode_rows(data):
    """The rows of _encode_rows; ValueError on anything else."""
    rows = []
    for enc in data:
        if type(enc) is not list or len(enc) % 3:
            raise ValueError("not a row")
        row = {}
        it = iter(enc)
        for col, e, c in zip(it, it, it):
            if (type(col) is not int or type(e) is not int
                    or type(c) is not int or col < 0 or not c
                    or (col, e) in row):
                raise ValueError("not a row entry")
            row[col, e] = c
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
    except (OSError, AttributeError, KeyError, RecursionError, TypeError,
            ValueError):
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
