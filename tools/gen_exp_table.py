#!/usr/bin/env python3
"""Generate src/dock/exp_table.h: the table and constants of glibc's exp.

    python3 tools/gen_exp_table.py > src/dock/exp_table.h

glibc's exp (from Arm's optimized-routines, glibc >= 2.28) reduces
x = k ln2/N + r with N = 128 and reads 2^(k/N) from a 256-word table as
H * (1 + T).  This script rebuilds that table from its definition, at
300-bit precision:

    H = round(2^(k/N)),  T = round((2^(k/N) - H) / H)   (nearest double)
    tab[2k] = bits(T),   tab[2k + 1] = bits(H) - (k << 45)

and writes the polynomial and reduction constants next to it.  The AVX2 pair
kernel (src/dock/vina_simd.cpp) evaluates the same sequence four lanes at a
time; its self-check compares the result with std::exp before it is used.
Needs mpmath.
"""

import struct
import sys

import mpmath

N = 128
TABLE_BITS = 7

# The reduction and polynomial constants of optimized-routines' exp_data.c
# (EXP_POLY_ORDER 5), as hex literals.
CONSTANTS = [
    ("kInvLn2N", "0x1.71547652b82fep+7", "N / ln 2"),
    ("kNegLn2hiN", "-0x1.62e42fefa0000p-8", "-ln 2 / N, high part"),
    ("kNegLn2loN", "-0x1.cf79abc9e3b3ap-47", "-ln 2 / N, low part"),
    ("kShift", "0x1.8p52", "round-to-integer shift"),
    ("kC2", "0x1.ffffffffffdbdp-2", "polynomial coefficients of exp(r) - 1"),
    ("kC3", "0x1.555555555543cp-3", ""),
    ("kC4", "0x1.55555cf172b91p-5", ""),
    ("kC5", "0x1.1111167a4d017p-7", ""),
]


def nearest_double(x):
    """`x` rounded to the nearest double (ties to even)."""
    with mpmath.workprec(53):
        return float(+x)


def bits(v):
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def table_words():
    words = []
    with mpmath.workprec(300):
        for k in range(N):
            exact = mpmath.power(2, mpmath.mpf(k) / N)
            h = nearest_double(exact)
            t = nearest_double((exact - mpmath.mpf(h)) / mpmath.mpf(h))
            words.append(bits(t))
            words.append((bits(h) - (k << (52 - TABLE_BITS))) % (1 << 64))
    return words


def main():
    out = sys.stdout
    out.write(
        "// Generated by tools/gen_exp_table.py; do not edit.\n"
        "//\n"
        "// The table and constants of glibc's exp, which comes from Arm's\n"
        "// optimized-routines (MIT licence, Copyright (c) 2018 Arm Ltd,\n"
        "// https://github.com/ARM-software/optimized-routines, math/exp_data.c).\n"
        "// 2^(k/N) ~= H[k] * (1 + T[k]) for k in [0, N); kExpTable[2k] holds\n"
        "// bits(T[k]) and kExpTable[2k + 1] holds bits(H[k]) - (k << 45).\n"
        "#pragma once\n"
        "\n"
        "#include <cstdint>\n"
        "\n"
        "namespace qdb::exp_table {\n"
        "\n"
        f"inline constexpr int kTableBits = {TABLE_BITS};\n"
        f"inline constexpr int kN = {N};\n"
        "\n")
    for name, value, doc in CONSTANTS:
        comment = f"  // {doc}" if doc else ""
        out.write(f"inline constexpr double {name} = {value};{comment}\n")
    out.write("\n")
    out.write(f"alignas(64) inline constexpr std::uint64_t kExpTable[{2 * N}] = {{\n")
    words = table_words()
    for i in range(0, len(words), 2):
        out.write(f"    0x{words[i]:016x}ULL, 0x{words[i + 1]:016x}ULL,\n")
    out.write("};\n\n}  // namespace qdb::exp_table\n")


if __name__ == "__main__":
    main()
