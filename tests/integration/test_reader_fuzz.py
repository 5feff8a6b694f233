"""The text readers under byte mutation: DIMACS, manifests and the journal.

Each reader takes input a user or a crashed process may have damaged.
Hypothesis flips, truncates and inserts bytes into valid documents, and
every result must be exact or a typed error, within a time bound:

* ``parse_dimacs`` returns a formula whose every literal lies within its
  variables and which survives a write/parse round trip, or raises a
  :class:`DimacsError` whose message names a line of the input; read from
  a file's bytes (``load_source``), a byte that is not UTF-8 is such an
  error too, and a literal beyond ``2**31 - 1`` is one with or without a
  header, as is a header declaring more variables than that;
* ``config_from_dict`` rejects a value of the wrong type for its field with
  a :class:`ManifestError` naming the field;
* ``parse_manifest`` returns jobs or raises a :class:`ManifestError`;
* ``read_journal`` returns exactly the lines that still parse as JSON
  objects (torn lines are skipped), and ``plan_resume`` resumes only jobs
  whose completion record and solutions file both survived.

(The artifact store's reader is fuzzed in ``tests/store/test_fuzz.py``.)
"""

from __future__ import annotations

import json
import os
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf.dimacs import DimacsError, parse_dimacs, parse_dimacs_file, write_dimacs
from repro.core.config import SamplerConfig
from repro.serve.jobs import (
    ManifestError,
    SamplingJob,
    config_from_dict,
    load_source,
    parse_manifest,
    read_source,
)
from repro.serve.journal import JOURNAL_NAME, JobJournal, job_fingerprint, plan_resume, read_journal
from tests.conftest import FIG1_DIMACS

#: Seconds any one read may take on these few-hundred-byte documents.
TIME_BOUND = 2.0

#: Insertions worth more than random bytes: structure, numbers at the edges
#: of their types, and nesting deep enough to exhaust a recursive parser.
TOKENS = (
    b"0", b"-", b" ", b"\n", b"\r", b"\t", b"\x00", b"p cnf ", b"c ", b"%",
    b"99999999999", b"-2147483649", b"1e999", b"NaN", b"-0", b"1_0", b"\xff",
    b"[", b"]", b"{", b"}", b'"', b",", b":", b"null", b"true", b"[" * 100_000,
)

mutations = st.lists(
    st.tuples(
        st.sampled_from(("flip", "truncate", "insert")),
        st.integers(min_value=0),
        st.integers(min_value=1, max_value=255),
        st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=6)),
    ),
    min_size=1,
    max_size=3,
)


def mutate(data: bytes, steps) -> bytes:
    for mode, position, mask, insert in steps:
        if not data:
            data = insert
            continue
        index = position % len(data)
        if mode == "truncate":
            data = data[:index]
        elif mode == "flip":
            data = data[:index] + bytes([data[index] ^ mask]) + data[index + 1 :]
        else:
            data = data[:index] + insert + data[index:]
    return data


def timed(read, *args):
    start = time.perf_counter()
    try:
        return read(*args)
    finally:
        assert time.perf_counter() - start < TIME_BOUND


# -- DIMACS -------------------------------------------------------------------------------
DIMACS_DOCUMENTS = (
    FIG1_DIMACS,
    "1 -2 0\n2 3\n-3 0\n",  # no header, a clause over two lines
    "c trailer\np cnf 4 2\n1 2 0\n-3 4 0\n%\n0\n",
)


@settings(max_examples=300, deadline=None)
@given(document=st.sampled_from(DIMACS_DOCUMENTS), steps=mutations)
def test_dimacs_is_exact_or_names_a_line(document, steps):
    text = mutate(document.encode(), steps).decode("latin-1")
    try:
        formula = timed(parse_dimacs, text)
    except DimacsError as error:
        match = re.match(r"line (\d+): ", str(error))
        assert match, str(error)
        assert 1 <= int(match.group(1)) <= max(1, len(text.split("\n")))
        return
    for clause in formula.clauses:
        assert all(0 < abs(literal) <= formula.num_variables for literal in clause)
    again = parse_dimacs(write_dimacs(formula))
    assert again == formula


@settings(max_examples=200, deadline=None)
@given(document=st.sampled_from(DIMACS_DOCUMENTS), steps=mutations)
def test_dimacs_bytes_are_exact_or_name_a_line(document, steps, tmp_path_factory):
    data = mutate(document.encode(), steps)
    path = tmp_path_factory.mktemp("dimacs") / "formula.cnf"
    path.write_bytes(data)
    spec = {"path": str(path)}
    try:
        formula = timed(load_source, spec, read_source(spec)[1])
    except DimacsError as error:
        match = re.match(r"line (\d+): ", str(error))
        assert match, str(error)
        assert 1 <= int(match.group(1)) <= max(1, len(data.splitlines()) + 1)
        with pytest.raises(DimacsError, match=f"^line {match.group(1)}: "):
            parse_dimacs_file(path)
        return
    assert parse_dimacs(write_dimacs(formula)) == formula
    assert formula == parse_dimacs_file(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("1 99999999999 0\n", 1),
        # int64's minimum, which np.abs leaves negative.
        ("1 0\n-9223372036854775808 0\n", 2),
        ("c x\n1 2 0\n-2 -2147483648 0\n", 3),
        ("c\n1 2\n3 " + "9" * 40 + " 0\n", 3),
        # A header wider than int32 is refused on its own line, before the
        # literal it would have let through.
        ("p cnf 99999999999 1\n2 0\n5000000000 0\n", 1),
    ],
)
def test_a_literal_beyond_int32_names_its_line(text, line):
    with pytest.raises(
        DimacsError, match=rf"^line {line}: (literal|header count) -?\d+ is beyond the largest"
    ):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("p cnf 99999999999 1\n1 0\n", 1),
        ("p cnf 2147483648 0\n", 1),
        ("c x\np cnf 4294967296 1\n1 0\n", 2),
        ("1 0\nc x\np cnf " + "9" * 40 + " 1\n", 3),
    ],
)
def test_a_header_declaring_more_than_int32_variables_names_its_line(text, line):
    with pytest.raises(
        DimacsError, match=rf"^line {line}: header count \d+ is beyond the largest variable"
    ):
        parse_dimacs(text)


def test_a_header_declaring_int32_max_variables_is_read(tmp_path):
    text = "p cnf 2147483647 1\n1 -2147483647 0\n"
    assert parse_dimacs(text).num_variables == 2**31 - 1
    path = tmp_path / "formula.cnf"
    path.write_text("p cnf 2147483648 1\n1 0\n")
    spec = {"path": str(path)}
    with pytest.raises(DimacsError, match="^line 1: header count 2147483648 is beyond"):
        load_source(spec, read_source(spec)[1])


#: Submits the widest formula a header may declare and reports how its job
#: ended, under an address-space limit (``argv[1]`` bytes) of its own.
_ADMISSION_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from repro.serve import SamplingService
with SamplingService(num_workers=0, store_dir=False) as service:
    start = time.perf_counter()
    job_id = service.submit({"dimacs": "p cnf 2147483647 1\\n1 0\\n"}, num_solutions=4)
    result = service.result(job_id)
    seconds = time.perf_counter() - start
print(json.dumps({"status": result.status, "error": result.error, "seconds": seconds}))
"""


def test_an_oversized_job_is_refused_before_any_build():
    # 2^31 - 1 variables at the default batch of 2,048 is far past the
    # admission bound: the job ends "error" at submit, naming both numbers
    # and the bound, instead of building per-variable state until memory
    # runs out.
    import subprocess
    import sys
    from pathlib import Path

    from repro.core.config import MAX_BATCH_CELLS

    source_root = Path(__file__).resolve().parents[2] / "src"
    environment = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(source_root), environment.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _ADMISSION_CHILD, str(2**30)],
        capture_output=True, text=True, timeout=120, env=environment,
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout.splitlines()[-1])
    assert outcome["status"] == "error"
    assert outcome["seconds"] < 2.0
    assert outcome["error"] == (
        f"job refused: 2147483647 variables x batch 2048 = {(2**31 - 1) * 2048} cells "
        f"exceeds the admission bound of {MAX_BATCH_CELLS} cells"
    )


@pytest.mark.parametrize("reader", ["file", "path spec", "path spec with bytes"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, reader):
    path = tmp_path / "formula.cnf"
    # The bad byte sits in a comment: it still fails the decode, on line 3.
    path.write_bytes(b"p cnf 2 1\r\n1 2 0\nc caf\xe9\n")
    spec = {"path": str(path)}
    with pytest.raises(DimacsError, match=r"^line 3: byte 0xe9 is not UTF-8"):
        if reader == "file":
            parse_dimacs_file(path)
        elif reader == "path spec":
            load_source(spec)
        else:
            load_source(spec, read_source(spec)[1])


@pytest.mark.parametrize(
    "key, value",
    [
        ("batch_size", 16.5),
        ("iterations", True),
        ("seed", "3"),
        ("stall_rounds", 2.0),
        ("learning_rate", "10"),
        ("timeout_seconds", [1]),
    ],
)
def test_a_config_value_of_the_wrong_type_is_a_manifest_error(key, value):
    with pytest.raises(ManifestError, match=f"config field '{key}' must be"):
        config_from_dict({key: value})
    with pytest.raises(TypeError, match=f"config field '{key}' must be"):
        SamplerConfig(**{key: value})
    entry = {"id": "j", "dimacs": "p cnf 1 1\n1 0\n", "config": {key: value}}
    with pytest.raises(ManifestError, match=f"job #0: config field '{key}'"):
        parse_manifest(json.dumps([entry]))


def test_config_values_of_the_annotated_kinds_are_accepted():
    import numpy as np

    config = config_from_dict(
        {"batch_size": np.int64(8), "learning_rate": 3, "seed": None, "timeout_seconds": 2}
    )
    assert (config.batch_size, config.learning_rate, config.timeout_seconds) == (8, 3, 2)


# -- manifests ----------------------------------------------------------------------------
MANIFEST_JOBS = [
    {"id": "plain", "dimacs": "p cnf 2 1\n1 2 0\n", "num_solutions": 5, "config": {"batch_size": 16, "seed": 1}},
    {"id": "inc", "instance": "or-50-10-7-UC-10", "type": "incremental", "assume": [1], "add": [[1, -2]]},
    {"id": "proj", "path": "formula.cnf", "type": "project", "project": [1, 2]},
    {"id": "weigh", "dimacs": "p cnf 2 1\n1 2 0\n", "type": "weighted", "weights": {"1": 0.3}},
    {"id": "port", "dimacs": "p cnf 2 1\n1 2 0\n", "portfolio": [{"seed": 3}, {"learning_rate": 5.0}], "coalesce": False},
]
MANIFEST_DOCUMENTS = (
    json.dumps(MANIFEST_JOBS, indent=1),
    json.dumps({"jobs": MANIFEST_JOBS}),
    "\n".join(json.dumps(job) for job in MANIFEST_JOBS),
)


def test_the_manifest_documents_parse():
    for document in MANIFEST_DOCUMENTS:
        assert [job.job_id for job in parse_manifest(document)] == [
            job["id"] for job in MANIFEST_JOBS
        ]


@settings(max_examples=300, deadline=None)
@given(document=st.sampled_from(MANIFEST_DOCUMENTS), steps=mutations)
def test_manifest_is_jobs_or_a_manifest_error(document, steps):
    text = mutate(document.encode(), steps).decode("latin-1")
    try:
        jobs = timed(parse_manifest, text)
    except ManifestError:
        return
    assert all(isinstance(job, SamplingJob) for job in jobs)


# -- the journal --------------------------------------------------------------------------
def _jobs():
    return [
        SamplingJob.build(
            {"dimacs": FIG1_DIMACS}, num_solutions=8, config=SamplerConfig(batch_size=32, seed=seed)
        )
        for seed in range(3)
    ]


def _journal_bytes(tmp_path) -> bytes:
    """A journal in which jobs 0 and 2 completed (with solutions files)."""
    jobs = _jobs()
    path = tmp_path / "seed.jsonl"
    with JobJournal(path) as journal:
        journal.record("run", manifest="jobs.json", workers=1)
        for index, job in enumerate(jobs):
            journal.record("submit", job=f"j{index}", fingerprint=job_fingerprint(job))
            journal.record("attempt", job=f"j{index}", member=0, attempt=0, worker=0)
        for index in (0, 2):
            journal.record(
                "done",
                job=f"j{index}",
                fingerprint=job_fingerprint(jobs[index]),
                status="done",
                result={"job_id": f"j{index}", "status": "done"},
            )
    return path.read_bytes()


def test_the_journal_resumes_its_completed_jobs(tmp_path):
    (tmp_path / JOURNAL_NAME).write_bytes(_journal_bytes(tmp_path))
    for index in (0, 2):
        (tmp_path / f"j{index}.solutions").write_text("0 1\n")
    pending, rows = plan_resume(_jobs(), tmp_path / JOURNAL_NAME, tmp_path)
    assert [index for index, _ in pending] == [1]


@settings(max_examples=200, deadline=None)
@given(steps=mutations)
def test_journal_skips_torn_lines_and_resumes_exactly(steps, tmp_path_factory):
    directory = tmp_path_factory.mktemp("journal")
    damaged = mutate(_journal_bytes(directory), steps)
    path = directory / JOURNAL_NAME
    path.write_bytes(damaged)
    for index in (0, 2):
        (directory / f"j{index}.solutions").write_text("0 1\n")

    records = timed(read_journal, path)
    expected = []
    for line in damaged.decode("utf-8", errors="replace").splitlines():
        try:
            entry = json.loads(line.strip()) if line.strip() else None
        except (ValueError, RecursionError):
            continue
        if isinstance(entry, dict):
            expected.append(entry)
    # (compared as JSON: a NaN a mutation spells out never equals itself)
    assert json.dumps(records, sort_keys=True) == json.dumps(expected, sort_keys=True)

    jobs = _jobs()
    pending, rows = timed(plan_resume, jobs, path, directory)
    assert len(rows) == len(jobs)
    assert [index for index, _ in pending] == [i for i, row in enumerate(rows) if row is None]
    for index, row in enumerate(rows):
        if row is not None:
            assert row["resumed"] is True
            assert (directory / f"{row['job_id']}.solutions").is_file()
            assert any(
                record.get("type") == "done"
                and record.get("status") == "done"
                and record.get("fingerprint") == job_fingerprint(jobs[index])
                for record in records
            )


@pytest.mark.parametrize(
    "job_id",
    ["../j0", "/tmp/j0", "j0\x00", "", ".", "sub/j0", "j" * 10_000],
    ids=["parent", "absolute", "nul", "empty", "dot", "subdirectory", "too-long"],
)
def test_a_completion_naming_no_plain_solutions_file_reruns(tmp_path, job_id):
    # A journal line can name any job id; only a plain file name in the
    # output directory can prove the job's rows survived.
    jobs = _jobs()
    (tmp_path / "j0.solutions").write_text("0 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "j0.solutions").write_text("0 1\n")
    with JobJournal(tmp_path / JOURNAL_NAME) as journal:
        journal.record(
            "done",
            job=job_id,
            fingerprint=job_fingerprint(jobs[0]),
            status="done",
            result={"job_id": job_id, "status": "done"},
        )
    pending, rows = plan_resume(jobs, tmp_path / JOURNAL_NAME, tmp_path)
    assert rows[0] is None and [index for index, _ in pending] == [0, 1, 2]


def test_deep_nesting_is_a_manifest_error_or_a_skipped_line(tmp_path):
    # json raises RecursionError, not a decode error, past ~1000 levels.
    with pytest.raises(ManifestError, match="nests too deeply"):
        parse_manifest("[" * 100_000)
    path = tmp_path / JOURNAL_NAME
    path.write_text('{"type": "run"}\n' + "[" * 100_000 + "\n")
    assert read_journal(path) == [{"type": "run"}]


@pytest.mark.parametrize(
    "key, value",
    [("num_solutions", "1e999"), ("assume", "[1e999]"), ("add", "[[1e999]]"), ("project", "[1e999]")],
)
def test_an_infinite_count_or_literal_is_a_manifest_error(key, value):
    # JSON reads 1e999 as inf, and int(inf) raises OverflowError.
    job_type = {"num_solutions": "sample", "project": "project"}.get(key, "incremental")
    text = (
        '[{"id": "j", "dimacs": "p cnf 2 1\\n1 2 0\\n", '
        f'"type": "{job_type}", "{key}": {value}}}]'
    )
    with pytest.raises(ManifestError, match="job #0|job 'j'"):
        parse_manifest(text)


@pytest.mark.parametrize("job_id", ["../outside", "sub/job", "a\\b", ".", ".."])
def test_a_manifest_id_must_be_a_plain_file_name(job_id):
    # The id names the job's solutions file inside the output directory.
    entry = {"id": job_id, "dimacs": "p cnf 1 1\n1 0\n"}
    with pytest.raises(ManifestError, match="not a plain file name"):
        parse_manifest(json.dumps([entry]))
