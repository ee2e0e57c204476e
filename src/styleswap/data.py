"""Synthetic vocabulary, task corpora, style corpora, and perturbations.

The vocabulary is fixed: 4 specials, 50 keyword tokens, 50 filler tokens,
and 10 marker tokens per style (s1, s2, s3), all pairwise disjoint. Tasks
and styles are built so that style is carried purely by marker tokens:

  headline  x interleaves 3-6 keywords with 5-15 fillers, y is the keyword
            subsequence of x in order
  story     x is 3-6 keywords, y repeats each keyword twice

  s1  prepends one marker and appends two
  s2  inserts a marker after every 2nd content token
  s3  wraps the sentence in a marker pair and doubles the final keyword

Two perturbations feed adapter pretraining. noise_gn masks/deletes tokens
independently and leaves surviving markers in place, so a noised sentence
still leaks its style. strip_style_gp removes every marker, rerolls the
fillers and locally shuffles them, so its output carries no style signal
at all; only the keyword subsequence survives.

All generators are pure functions of (seed, sizes); corpus files hold one
sequence per line as space-separated token names.

Corpora are byte-stable for fixed inputs, so the kind and order of every
random draw is part of the format. The generators draw the stream of the
per-token `Generator.choice` calls they replaced, which tests/helpers.py
keeps as the oracle, using two identities of numpy's Generator:
`choice(seq)` equals `seq[integers(0, len(seq))]` (one `integers` draw),
and a vector `random(n)` equals n scalar `random()` draws. Sampling without
replacement stays `choice(..., replace=False)`, because no cheaper call
reproduces its final shuffle. Reordering draws or changing their kind
changes every corpus; the oracle tests in test_data.py catch it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STYLES = ("s1", "s2", "s3")
STYLELESS = "s0"
TASKS = ("headline", "story")

N_KEYWORDS = 50
N_FILLERS = 50
N_MARKERS = 10

# g_n's per-token mask and delete rates for the style corpora
MASK_RATE = 0.15
DELETE_RATE = 0.10


def child_seed(seed: int, label: str) -> int:
    """Stable derived seed for an independent random stream."""
    digest = hashlib.blake2s(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Vocab:
    """The fixed 134-token vocabulary with typed id ranges."""

    def __init__(self):
        names = ["<pad>", "<bos>", "<eos>", "<mask>"]
        self.pad, self.bos, self.eos, self.mask = 0, 1, 2, 3
        self.keywords = tuple(range(len(names), len(names) + N_KEYWORDS))
        names += [f"k{i:02d}" for i in range(N_KEYWORDS)]
        self.fillers = tuple(range(len(names), len(names) + N_FILLERS))
        names += [f"f{i:02d}" for i in range(N_FILLERS)]
        self.markers: dict[str, tuple[int, ...]] = {}
        for style in STYLES:
            self.markers[style] = tuple(range(len(names), len(names) + N_MARKERS))
            names += [f"{style}m{i}" for i in range(N_MARKERS)]
        self.names = names
        self.ids = {n: i for i, n in enumerate(names)}
        self._keyword_set = frozenset(self.keywords)
        self._filler_set = frozenset(self.fillers)
        self._marker_style = {}
        for style, ids in self.markers.items():
            for i in ids:
                self._marker_style[i] = style

    def __len__(self) -> int:
        return len(self.names)

    def is_keyword(self, tok: int) -> bool:
        return tok in self._keyword_set

    def is_filler(self, tok: int) -> bool:
        return tok in self._filler_set

    def marker_style(self, tok: int) -> str | None:
        return self._marker_style.get(tok)

    def encode(self, names: list[str]) -> list[int]:
        return [self.ids[n] for n in names]

    def decode(self, toks: list[int]) -> list[str]:
        return [self.names[t] for t in toks]

    def keyword_subsequence(self, toks: list[int]) -> list[int]:
        return [t for t in toks if t in self._keyword_set]


@dataclass
class TaskPair:
    x: list[int]
    y: list[int]


@dataclass
class StyleCorpus:
    """One style's sentences plus both perturbed pairings (input -> sentence)."""

    style_id: str
    sentences: list[list[int]]
    para_inputs: list[list[int]]
    noise_inputs: list[list[int]]


# ---------------------------------------------------------------------------
# generators


def _plain_sentence(vocab: Vocab, rng: np.random.Generator) -> list[int]:
    """Keyword-heavy short sentence: 3-6 distinct keywords, 2-6 fillers."""
    n_k = int(rng.integers(3, 7))
    n_f = int(rng.integers(2, 7))
    return _interleave(vocab, rng, n_k, n_f)


def _interleave(vocab: Vocab, rng: np.random.Generator, n_k: int, n_f: int) -> list[int]:
    keywords = rng.choice(len(vocab.keywords), size=n_k, replace=False).tolist()
    fillers = rng.integers(0, len(vocab.fillers), size=n_f).tolist()
    total = n_k + n_f
    slots = np.zeros(total, dtype=bool)
    slots[rng.choice(total, size=n_k, replace=False)] = True
    out, ki, fi = [], 0, 0
    for is_keyword in slots.tolist():
        if is_keyword:
            out.append(vocab.keywords[keywords[ki]])
            ki += 1
        else:
            out.append(vocab.fillers[fillers[fi]])
            fi += 1
    return out


def gen_task_pairs(vocab: Vocab, rng_seed: int, n: int, task_kind: str) -> list[TaskPair]:
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(rng_seed)
    pairs = []
    for _ in range(n):
        if task_kind == "headline":
            n_k = int(rng.integers(3, 7))
            n_f = int(rng.integers(5, 16))
            x = _interleave(vocab, rng, n_k, n_f)
            y = vocab.keyword_subsequence(x)
        elif task_kind == "story":
            n_k = int(rng.integers(3, 7))
            picks = rng.choice(len(vocab.keywords), size=n_k, replace=False)
            x = [vocab.keywords[i] for i in picks]
            y = [tok for tok in x for _ in range(2)]
        else:
            raise ValueError(f"unknown task kind: {task_kind!r}")
        pairs.append(TaskPair(x=x, y=y))
    return pairs


def split_indices(n: int) -> dict[str, range]:
    """90/5/5 split by index."""
    n_train = int(n * 0.90)
    n_valid = int(n * 0.05)
    return {
        "train": range(0, n_train),
        "valid": range(n_train, n_train + n_valid),
        "test": range(n_train + n_valid, n),
    }


def stylize(vocab: Vocab, plain: list[int], style_id: str,
            rng: np.random.Generator) -> list[int]:
    """Apply a style's decoration rule; never removes content tokens."""
    if any(vocab.marker_style(t) for t in plain):
        raise ValueError("stylize: input already contains marker tokens")

    def pick():
        markers = vocab.markers[style_id]
        return markers[int(rng.integers(0, len(markers)))]

    if style_id == "s1":
        return [pick()] + list(plain) + [pick(), pick()]
    if style_id == "s2":
        out = []
        for count, tok in enumerate(plain, start=1):
            out.append(tok)
            if count % 2 == 0:
                out.append(pick())
        return out
    if style_id == "s3":
        out = list(plain)
        last_k = max((i for i, t in enumerate(out) if vocab.is_keyword(t)), default=None)
        if last_k is not None:
            out.insert(last_k + 1, out[last_k])
        return [pick()] + out + [pick()]
    raise ValueError(f"no decoration rule for style {style_id!r}")


def noise_gn(vocab: Vocab, t: list[int], mask_rate: float, delete_rate: float,
             rng: np.random.Generator) -> list[int]:
    """BART-style corruption; markers are not exempt, so style leaks through."""
    if not (0.0 <= mask_rate < 1.0 and 0.0 <= delete_rate < 1.0):
        raise ValueError("rates must be in [0, 1)")
    if mask_rate + delete_rate >= 1.0:
        raise ValueError("mask_rate + delete_rate must be < 1")
    out = []
    for tok, u in zip(t, rng.random(len(t)).tolist()):
        if u < mask_rate:
            out.append(vocab.mask)
        elif u < mask_rate + delete_rate:
            continue
        else:
            out.append(tok)
    return out


def strip_style_gp(vocab: Vocab, t: list[int], rng: np.random.Generator) -> list[int]:
    """Style-stripping paraphrase surrogate: marker-free, fillers rerolled.

    Keyword positions and order are preserved exactly; every filler is
    replaced by a uniformly random filler and adjacent filler pairs swap
    with probability 1/2.
    """
    out = [tok for tok in t if vocab.marker_style(tok) is None]
    last_k = max((i for i, tok in enumerate(out) if vocab.is_keyword(tok)), default=None)
    if last_k is not None and last_k > 0 and out[last_k - 1] == out[last_k]:
        del out[last_k]
    fillers = vocab.fillers
    out = [fillers[int(rng.integers(0, len(fillers)))] if vocab.is_filler(tok) else tok
           for tok in out]
    i = 0
    while i < len(out) - 1:
        if vocab.is_filler(out[i]) and vocab.is_filler(out[i + 1]):
            if rng.random() < 0.5:
                out[i], out[i + 1] = out[i + 1], out[i]
            i += 2
        else:
            i += 1
    return out


def build_style_corpus(vocab: Vocab, style_id: str, n: int, seed: int) -> StyleCorpus:
    """Sentences plus (g_p(t), t) and (g_n(t), t) inputs for one style.

    style_id "s0" builds the style-less corpus: undecorated plain sentences.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(child_seed(seed, f"style:{style_id}"))
    sentences, para_inputs, noise_inputs = [], [], []
    for _ in range(n):
        plain = _plain_sentence(vocab, rng)
        sent = plain if style_id == STYLELESS else stylize(vocab, plain, style_id, rng)
        sentences.append(sent)
        para_inputs.append(strip_style_gp(vocab, sent, rng))
        noise_inputs.append(noise_gn(vocab, sent, MASK_RATE, DELETE_RATE, rng))
    return StyleCorpus(style_id, sentences, para_inputs, noise_inputs)


# ---------------------------------------------------------------------------
# corpus files


def write_corpus(path: Path, sequences: list[list[int]], vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(" ".join(vocab.decode(seq)) + "\n")


def read_corpus(path: Path, vocab: Vocab) -> list[list[int]]:
    sequences = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            names = line.split()
            try:
                sequences.append(vocab.encode(names))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: unknown token {exc.args[0]!r}") from None
    return sequences


def generate_data_dir(data_dir: Path, seed: int, n_task: int, n_style: int,
                      tasks: tuple[str, ...] = TASKS) -> dict:
    """Write every corpus file plus a manifest; byte-stable for fixed inputs."""
    vocab = Vocab()
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "seed": seed,
        "sizes": {"task": n_task, "style": n_style},
        "noise": {"mask_rate": MASK_RATE, "delete_rate": DELETE_RATE},
        "splits": {},
        "files": [],
    }

    def emit(name: str, sequences: list[list[int]]):
        write_corpus(data_dir / name, sequences, vocab)
        manifest["files"].append(name)

    for task in tasks:
        pairs = gen_task_pairs(vocab, child_seed(seed, f"task:{task}"), n_task, task)
        splits = split_indices(len(pairs))
        manifest["splits"][f"task_{task}"] = {k: [r.start, r.stop] for k, r in splits.items()}
        for split, idx in splits.items():
            emit(f"task_{task}.{split}.src", [pairs[i].x for i in idx])
            emit(f"task_{task}.{split}.tgt", [pairs[i].y for i in idx])

    for style_id in (STYLELESS,) + STYLES:
        corpus = build_style_corpus(vocab, style_id, n_style, seed)
        splits = split_indices(n_style)
        manifest["splits"][f"style_{style_id}"] = {k: [r.start, r.stop] for k, r in splits.items()}
        for split, idx in splits.items():
            emit(f"style_{style_id}.{split}.txt", [corpus.sentences[i] for i in idx])
            emit(f"style_{style_id}.para.{split}.src", [corpus.para_inputs[i] for i in idx])
            emit(f"style_{style_id}.noise.{split}.src", [corpus.noise_inputs[i] for i in idx])

    with open(data_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
