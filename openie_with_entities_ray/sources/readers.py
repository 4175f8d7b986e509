"""Readers for the reference's text file formats (SURVEY.md §2.1).

Each parser is a pure text→rows kernel wired to ``ray.data.read_text`` /
``read_binary_files``; formats per the reference:

- S2 labels file:   blank-line-separated blocks; first line = sentence
  (with markers), following lines = per-word label names
  (/root/reference/data.py:256-309)
- S3 conj file:     blank-line-separated blocks; first line = original
  sentence, rest = split sentences (/root/reference/run.py:206-227)
- S4 CaRB gold TSV: ``sent \t rel \t arg1 \t arg2...``; args containing
  'C: ' are skipped (/root/reference/carb/oie_readers/goldReader.py:14-38)
- S5 allennlp:      ``sent \t <arg1>..</arg1> <rel>..</rel> <arg2>..</arg2>
  \t confidence`` (/root/reference/carb/oie_readers/allennlpReader.py:13-85)
- S6 tabbed:        ``sent \t prob \t pred \t arg1 \t arg2...``
  (/root/reference/carb/oie_readers/tabReader.py:23-49)

Multi-line record formats (S2/S3) cannot split on arbitrary line
boundaries, so they read whole files (``read_binary_files``) and explode
blocks inside the batch — one file is the unit of parallelism, matching
how the reference consumes them.
"""

from __future__ import annotations

import re

import pyarrow as pa

OIE_LABEL_IDS = {
    "NONE": 0, "ARG1": 1, "REL": 2, "ARG2": 3,
    "LOC": 4, "TIME": 4, "TYPE": 5, "ARGS": 3,
}  # data.py:407-409
CONJ_LABEL_IDS = {
    "CP_START": 2, "CP": 1, "CC": 3, "SEP": 4, "OTHERS": 5, "NONE": 0,
}  # data.py:410-412

_ARG1_RE = re.compile(r"<arg1>\s*(.*?)\s*</arg1>")
_REL_RE = re.compile(r"<rel>\s*(.*?)\s*</rel>")
_ARG2_RE = re.compile(r"<arg2>\s*(.*?)\s*</arg2>")


def parse_labels_blocks(text: str, label_ids=None):
    """S2: yields (sentence, [[label ids per word]...]) per block; labels are
    truncated to the word count and capped at 5 rows (data.py:260,301-307)."""
    label_ids = label_ids or OIE_LABEL_IDS
    out = []
    for block in text.split("\n\n"):
        lines = [l for l in block.splitlines() if l.strip()]
        if not lines:
            continue
        sentence = lines[0].strip()
        n_words = len(sentence.split())
        rows = []
        for line in lines[1:]:
            row = [label_ids[w] for w in line.split()][:n_words]
            rows.append(row)
        out.append((sentence, rows[:5]))
    return out


def parse_conj_blocks(text: str):
    """S3: yields (orig_sentence, [split...]) per block; a single-line block
    maps to itself (run.py:212-227)."""
    text = text.replace("\\", "")  # run.py:208-209
    out = []
    for block in text.split("\n\n"):
        lines = [l for l in block.strip().splitlines() if l.strip()]
        if not lines:
            continue
        if len(lines) == 1:
            out.append((lines[0], [lines[0]]))
        else:
            out.append((lines[0], lines[1:]))
    return out


def parse_gold_tsv_line(line: str):
    """S4: (sentence, rel, [args]) or None; 'C: '-prefixed args skipped."""
    parts = line.strip().split("\t")
    if len(parts) < 3:
        return None
    sent, rel = parts[0], parts[1]
    args = [a for a in parts[2:] if "C: " not in a]
    return sent, rel, args


def parse_allennlp_line(line: str):
    """S5: (sentence, arg1, rel, arg2, confidence) or None. Missing tags
    default to '' — the reference reader tolerates partial tag sets
    (allennlpReader.py:52-60 try/except per part)."""
    parts = line.strip().split("\t")
    if len(parts) < 3:
        return None
    m1 = _ARG1_RE.search(parts[1])
    mr = _REL_RE.search(parts[1])
    m2 = _ARG2_RE.search(parts[1])
    if not (m1 or mr or m2):
        return None
    try:
        conf = float(parts[2])
    except ValueError:
        return None
    return (
        parts[0],
        m1.group(1) if m1 else "",
        mr.group(1) if mr else "",
        m2.group(1) if m2 else "",
        conf,
    )


def parse_tabbed_line(line: str):
    """S6: (sentence, confidence, rel, [args]) or None."""
    parts = line.strip().split("\t")
    if len(parts) < 4:
        return None
    try:
        conf = float(parts[1])
    except ValueError:
        return None
    return parts[0], conf, parts[2], parts[3:]


def parse_oie_blocks(text: str):
    """.oie format reader (the inverse of the K1 writer / data.py:571-576):
    blank-line-separated blocks of sentence + 'conf: (arg1; rel; arg2)'
    lines → (sentence, rel, [arg1, arg2...], confidence)."""
    out = []
    line_re = re.compile(r"^(\d+\.\d+):\s*\((.*)\)\s*$")
    for block in text.split("\n\n"):
        lines = [l for l in block.splitlines() if l.strip()]
        if not lines:
            continue
        sentence = lines[0]
        for line in lines[1:]:
            m = line_re.match(line)
            if not m:
                continue
            parts = [p.strip() for p in m.group(2).split(";")]
            if len(parts) < 2:
                continue
            arg1, rel = parts[0], parts[1]
            args = [arg1] + parts[2:]
            out.append((sentence, rel, args, float(m.group(1))))
    return out


# ---------------------------------------------------------------------------
# S7: other-system line formats (carb/oie_readers/*.py; registry dispatch
# carb/carb.py:440-478). Each parser yields (sentence, rel, args,
# confidence) tuples.


def parse_clausie_blocks(text: str):
    """ClausIE (clausieReader.py:19-33): a 1-field line sets the sentence;
    5-field lines are quoted (arg1, rel, arg2) + confidence."""
    out = []
    sentence = None
    for line in text.splitlines():
        data = line.strip().split("\t")
        if len(data) == 1 and data[0]:
            sentence = data[0]
        elif len(data) == 5 and sentence is not None:
            arg1, rel, arg2 = [s[1:-1] for s in data[1:4]]
            try:
                conf = float(data[4])
            except ValueError:
                continue
            out.append((sentence, rel, [arg1, arg2], conf))
    return out


def parse_ollie_blocks(text: str):
    """OLLIE (ollieReader.py:8-17): header line then 7-col TSV
    (confidence, arg1, rel, arg2, enabler, attribution, sentence)."""
    out = []
    for line in text.splitlines()[1:]:
        data = line.strip().split("\t")
        if len(data) < 7:
            continue
        confidence, arg1, rel, arg2, _enabler, _attr, sent = data[:7]
        try:
            conf = float(confidence)
        except ValueError:
            continue
        out.append((sent, rel, [arg1, arg2], conf))
    return out


def parse_stanford_line(line: str):
    """Stanford (stanfordReader.py:8-17): args at cols 2-4, confidence at
    11, sentence at 12."""
    data = line.strip().split("\t")
    if len(data) < 13:
        return None
    try:
        conf = float(data[11])
    except ValueError:
        return None
    return (data[12], data[3], [data[2], data[4]], conf)


def parse_props_line(line: str):
    """PropS (propsReader.py:8-16): (confidence, sentence, rel) then args
    at every second column from 4."""
    data = line.strip().split("\t")
    if len(data) < 3 or not line.strip():
        return None
    try:
        conf = float(data[0])
    except ValueError:
        return None
    args = data[4::2]
    return (data[1], data[2], args, conf)


def _simple_arg(s: str):
    """'SimpleArgument(text,List(...))' → text (openieFourReader.py:25)."""
    return s[s.index("(") + 1 : s.index(",List(")]


def parse_openie4_line(line: str):
    data = line.strip().split("\t")
    if len(data) < 6 or not all(data[2:5]):
        return None
    try:
        conf = float(data[0])
        arg1, rel, arg2 = [_simple_arg(s) for s in data[2:5]]
    except (ValueError, IndexError):
        return None
    return (data[5], rel, [arg1, arg2], conf)


def parse_openie5_line(line: str):
    """OpenIE-5 (openieFiveReader.py): multiple args split on ');' and a
    context prefix folded onto arg1 when it isn't already a prefix."""
    data = line.strip().split("\t")
    if len(data) < 6 or not all(data[2:5]):
        return None
    try:
        conf = float(data[0])
        arg1, rel = [_simple_arg(s) for s in data[2:4]]
        args = [_simple_arg(s) for s in data[4].strip().split(");")]
    except (ValueError, IndexError):
        return None
    text = data[5]
    if data[1]:
        try:
            context = _simple_arg(data[1])
        except (ValueError, IndexError):
            context = ""
        if context and not (arg1 + " " + rel).startswith(context):
            arg1 = context + " " + arg1
    return (text, rel, [arg1] + args, conf)


def parse_reverb_line(line: str):
    """ReVerb (reVerbReader.py:11-21): args at cols 2-4, confidence at
    col 11, and a 1-BASED SENTENCE INDEX at col 1 — the sentence text
    lives in a separate raw-sentences companion file
    (reVerbReader.py:26-28). Returns (index, rel, args, confidence)."""
    data = line.strip().split("\t")
    if len(data) < 12:
        return None
    try:
        conf = float(data[11])
        idx = int(data[1])
    except ValueError:
        return None
    return (idx, data[3], [data[2], data[4]], conf)


def read_reverb(paths, raw_sents_path: str):
    """ReVerb extractions ⨝ raw-sentences companion file.

    The sentence list is small side data: read once on the driver and
    shipped in the task closure (one object-store copy). Out-of-range
    indices are skipped — the reference would crash on them
    (reVerbReader.py:19), but an engine must not die on data."""
    import pyarrow as pa

    import ray.data

    with open(raw_sents_path) as f:
        sents = [s.strip() for s in f.readlines()]

    def parse_lines(batch: pa.Table) -> pa.Table:
        records = []
        for line in batch.column("text").to_pylist():
            rec = parse_reverb_line(line)
            if rec:
                idx, rel, args, conf = rec
                if 1 <= idx <= len(sents):
                    records.append((sents[idx - 1], rel, args, conf))
        return pa.table(
            {
                "sentence": pa.array([r[0] for r in records], pa.string()),
                "rel": pa.array([r[1] for r in records], pa.string()),
                "args": pa.array(
                    [list(r[2]) for r in records], pa.list_(pa.string())
                ),
                "confidence": pa.array(
                    [r[3] for r in records], pa.float64()
                ),
            }
        )

    return ray.data.read_text(paths).map_batches(
        parse_lines, batch_format="pyarrow"
    )


def parse_benchmark_gold_line(line: str):
    """benchmarkGoldReader: sent \t prob \t pred \t arg1 \t arg2..."""
    rec = parse_tabbed_line(line)
    if rec is None:
        return None
    sent, conf, rel, args = rec
    return (sent, rel, args, conf)


# line-oriented formats → one parser call per line; block formats
# (clausie, ollie) parse whole files
LINE_PARSERS = {
    "stanford": parse_stanford_line,
    "props": parse_props_line,
    "openie4": parse_openie4_line,
    "openie5": parse_openie5_line,
    "benchmark_gold": parse_benchmark_gold_line,
}
BLOCK_PARSERS = {
    "clausie": parse_clausie_blocks,
    "ollie": parse_ollie_blocks,
    "oie": parse_oie_blocks,
}


def read_extractions(paths, fmt: str, raw_sents: str | None = None):
    """Registry reader (carb.py:440-478 analogue): any S7 format → a
    Dataset of (sentence, rel, args, confidence). ``fmt='reverb'``
    additionally needs the raw-sentences companion file
    (carb.py:452-453 dispatch)."""
    import pyarrow as pa

    import ray.data

    if fmt == "reverb":
        if raw_sents is None:
            raise ValueError("fmt='reverb' needs raw_sents=<sentences file>")
        return read_reverb(paths, raw_sents)

    def to_table(records):
        return pa.table(
            {
                "sentence": pa.array([r[0] for r in records], pa.string()),
                "rel": pa.array([r[1] for r in records], pa.string()),
                "args": pa.array(
                    [list(r[2]) for r in records], pa.list_(pa.string())
                ),
                "confidence": pa.array([r[3] for r in records], pa.float64()),
            }
        )

    if fmt in LINE_PARSERS:
        parser = LINE_PARSERS[fmt]

        def parse_lines(batch: pa.Table) -> pa.Table:
            records = []
            for line in batch.column("text").to_pylist():
                rec = parser(line)
                if rec:
                    records.append(rec)
            return to_table(records)

        return ray.data.read_text(paths).map_batches(
            parse_lines, batch_format="pyarrow"
        )
    if fmt in BLOCK_PARSERS:
        block_parser = BLOCK_PARSERS[fmt]

        def parse_files(batch) -> pa.Table:
            records = []
            for data in list(batch["bytes"]):
                records.extend(block_parser(bytes(data).decode("utf-8")))
            return to_table(records)

        return ray.data.read_binary_files(paths).map_batches(
            parse_files, batch_format="numpy"
        )
    raise ValueError(f"unknown extraction format: {fmt}")


# ---------------------------------------------------------------------------
# Ray Dataset constructors


def read_allennlp(paths):
    import ray.data

    def parse(batch: pa.Table) -> pa.Table:
        cols = {k: [] for k in ("sentence", "arg1", "rel", "arg2", "confidence")}
        for line in batch.column("text").to_pylist():
            rec = parse_allennlp_line(line)
            if rec:
                for k, v in zip(cols, rec):
                    cols[k].append(v)
        return pa.table(
            {
                "sentence": pa.array(cols["sentence"], pa.string()),
                "arg1": pa.array(cols["arg1"], pa.string()),
                "rel": pa.array(cols["rel"], pa.string()),
                "arg2": pa.array(cols["arg2"], pa.string()),
                "confidence": pa.array(cols["confidence"], pa.float64()),
            }
        )

    return ray.data.read_text(paths).map_batches(parse, batch_format="pyarrow")


def read_conj_file(paths):
    """S3 → SPLIT_SENTENCES-shaped rows (no doc provenance: file formats
    carry none; keys are (file path, block index))."""
    import ray.data

    def parse(batch) -> pa.Table:
        out_path, out_block, out_split, out_orig, out_sent = [], [], [], [], []
        for path, data in zip(
            batch["path"].tolist(), list(batch["bytes"])
        ):
            text = bytes(data).decode("utf-8")
            for block_id, (orig, splits) in enumerate(parse_conj_blocks(text)):
                for split_id, s in enumerate(splits):
                    out_path.append(path)
                    out_block.append(block_id)
                    out_split.append(split_id)
                    out_orig.append(orig)
                    out_sent.append(s)
        return pa.table(
            {
                "path": pa.array(out_path, pa.string()),
                "sent_id": pa.array(out_block, pa.int64()),
                "split_id": pa.array(out_split, pa.int64()),
                "orig_sentence": pa.array(out_orig, pa.string()),
                "split_sentence": pa.array(out_sent, pa.string()),
            }
        )

    return ray.data.read_binary_files(paths, include_paths=True).map_batches(
        parse, batch_format="numpy"
    )
