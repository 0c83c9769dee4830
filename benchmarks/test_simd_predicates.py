"""Section II.B.6 — software-SIMD predicate evaluation.

Paper: predicates apply "simultaneously on all values in a word, for any
code size"; this is additional to thread parallelism and is what makes the
scan-centric model fast.  The benchmark compares the word-parallel kernels
against per-value evaluation across code widths, plus the order-preserving
ablation (II.B.2): without order-preserving codes, range predicates must
decode before comparing.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compression.codec import compress_column
from repro.simd.predicates import eval_compare, eval_compare_scalar
from repro.util.bitpack import pack_codes

from conftest import banner, record

N_CODES = 200_000


def test_simd_vs_scalar_across_widths(benchmark):
    rng = np.random.default_rng(0)
    lines = ["paper:    all codes in a word evaluated simultaneously", ""]
    speedups = {}
    for width in (1, 4, 8, 13, 21):
        codes = rng.integers(0, 1 << width, size=N_CODES, dtype=np.uint64)
        packed = pack_codes(codes, width)
        k = int(codes[0])
        t0 = time.perf_counter()
        simd_result = eval_compare(packed, "<=", k)
        t_simd = time.perf_counter() - t0
        sample = min(N_CODES, 20_000)
        sampled = pack_codes(codes[:sample], width)
        t0 = time.perf_counter()
        scalar_result = eval_compare_scalar(sampled, "<=", k)
        t_scalar = (time.perf_counter() - t0) * (N_CODES / sample)
        assert np.array_equal(simd_result[:sample], scalar_result)
        ratio = t_scalar / t_simd
        speedups[width] = ratio
        lines.append(
            "width %2d bits: %5.1f codes/word   SIMD %.4fs vs per-value %.2fs  (%.0fx)"
            % (width, packed.codes_per_word, t_simd, t_scalar, ratio)
        )

    codes8 = rng.integers(0, 256, size=N_CODES, dtype=np.uint64)
    packed8 = pack_codes(codes8, 8)
    benchmark.pedantic(lambda: eval_compare(packed8, "<=", 100), rounds=5, iterations=1)

    banner("II.B.6 — software-SIMD predicate evaluation", lines)
    record("simd", speedups={str(k): round(v) for k, v in speedups.items()})
    assert all(ratio > 20 for ratio in speedups.values())
    # Narrow codes fit more per word -> more parallelism per instruction.
    assert packed8.codes_per_word < pack_codes(codes8 % 2, 1).codes_per_word


def test_order_preserving_ablation(benchmark):
    """II.B.2 ablation: order-preserving codes let ranges run compressed;
    without the property the scan must decode every value first."""
    rng = np.random.default_rng(1)
    values = rng.integers(0, 5_000, size=N_CODES).astype(np.int64)
    column = compress_column(values, force="dictionary")

    t0 = time.perf_counter()
    on_codes = column.eval_compare("<", 2_500)
    t_compressed = time.perf_counter() - t0

    def decoded_range():
        decoded, _ = column.decode()
        return decoded < 2_500

    t0 = time.perf_counter()
    on_decoded = decoded_range()
    t_decoded = time.perf_counter() - t0

    benchmark.pedantic(lambda: column.eval_compare("<", 2_500), rounds=5, iterations=1)

    assert np.array_equal(on_codes, on_decoded)
    # The hardware-relevant quantity is memory traffic: on codes the scan
    # touches only the packed words; decode-then-compare must materialise
    # the full uncompressed vector first.  (numpy wall times do not model
    # register-resident compares, so the assertion is on bytes.)
    packed_bytes = column.packed.nbytes()
    decoded_bytes = column.decode()[0].nbytes
    banner(
        "II.B.2 — operating on compressed data (order-preserving ablation)",
        [
            "range predicate on codes:   %.4fs over %6.1f KB of packed words"
            % (t_compressed, packed_bytes / 1024),
            "decode-then-compare:        %.4fs over %6.1f KB materialised"
            % (t_decoded, decoded_bytes / 1024),
            "memory traffic ratio:       %.1fx" % (decoded_bytes / packed_bytes),
        ],
    )
    record(
        "order-preserving-ablation",
        packed_kb=packed_bytes / 1024,
        decoded_kb=decoded_bytes / 1024,
    )
    assert packed_bytes * 3 < decoded_bytes


def _best_us(fn, number: int) -> float:
    import timeit

    return min(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6


def test_selection_form_crossover():
    """Where row ids stop being cheaper than a mask (DESIGN.md note 19).

    One pushed predicate's result words, read both ways, plus the decode of
    ``c`` needed columns: *positions* = count the bits, expand the non-zero
    words to row ids, gather and decode ``c`` columns at the ids; *mask* =
    count the bits, expand every word to a bool per row, turn the mask into
    row ids once, unpack and decode ``c`` columns and gather each at those
    ids (the scan's mask route).  Hits are scattered (one per word where
    they fit — the positional extractor's worst case).  The scan's switch,
    ``POSITIONS_MAX_DENSITY``, has to sit under the crossover of every
    configuration; the table goes to EXPERIMENTS.md.
    """
    from repro.engine.operators import POSITIONS_MAX_DENSITY
    from repro.simd.packed import count_result_bits

    rng = np.random.default_rng(0)
    densities = (1 / 1024, 1 / 256, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4)
    lines = [
        "positions / mask cost per region, c = 1 | 3 needed columns (< 1: row ids win)",
        "",
        "%-6s %-5s  " % ("n", "width") + "  ".join("1/%-9d" % round(1 / d) for d in densities),
    ]
    ratios = {}
    for n in (8_192, 40_000, 65_536):
        for width in (8, 13, 20):
            cells = []
            for density in densities:
                hits = max(1, int(n * density))
                values = rng.integers(1, 1 << width, n).astype(np.int64)
                values[values == 7] = 8
                values[rng.choice(n, hits, replace=False)] = 7
                values[0], values[1] = 0, (1 << width) - 1  # pin the code width
                column = compress_column(values, force="minus")
                assert column.packed.width == width
                words = column.eval_words("=", 7)
                pair = []
                for c in (1, 3):
                    def positions():
                        count_result_bits(words)
                        ids = column.words_positions(words)
                        for _ in range(c):
                            column.decode(ids)

                    def mask():
                        count_result_bits(words)
                        kept = np.flatnonzero(column.words_mask(words))
                        for _ in range(c):
                            decoded, _nulls = column.decode()
                            decoded[kept]

                    number = 100 if n < 20_000 else 30
                    pair.append(_best_us(positions, number) / _best_us(mask, number))
                ratios[(n, width, density)] = pair
                cells.append("%.2f | %.2f" % tuple(pair))
            lines.append("%-6d %-5d  " % (n, width) + "  ".join("%-11s" % c for c in cells))
    banner("Selection form — positions vs mask crossover", lines)
    record(
        "selection-form-crossover",
        worst_ratio_under_switch=round(
            max(max(p) for (_, _, d), p in ratios.items() if d < POSITIONS_MAX_DENSITY), 2
        ),
    )
    # Under the switch density row ids are cheaper in every configuration
    # (a wide margin: the box is noisy), and well under it by a factor.
    for (n, width, density), pair in ratios.items():
        if density < POSITIONS_MAX_DENSITY:
            assert max(pair) < 1.0, (n, width, density, pair)
        if density <= 1 / 256 and n >= 40_000:
            assert max(pair) < 0.5, (n, width, density, pair)
