"""Known answers the benchmark checks on every run.

The keystream vectors are the package's published known-answer tests,
copied here so that the benchmark does not depend on the test suite.
The battery p-values and the output digests were recorded from this
benchmark at the commit that introduced it; a change in any of them
means the library's output changed.
"""

KAT_KEY = [681, 884, 35, 345, 203, 50, 912, 358]
KAT_IV = [645, 473, 798, 506]

#: (label, key, iv, first eight keystream words) for SNOW 2.0
SNOW2_KATS = [
    ("snow2 zero key", [0] * 8, [0] * 4, [
        0xB56F2D8E, 0x430E20BC, 0x444A4A78, 0x77A9788F,
        0x4F060087, 0xFCEDD8C2, 0x10DAED5D, 0x42AA2C88,
    ]),
    ("snow2 256-bit key", KAT_KEY, KAT_IV, [
        0xBC2AD498, 0x6F479F78, 0x7AD7544E, 0xD4D018A2,
        0x45A22CA6, 0xBA179956, 0x5D6B8D1D, 0x4389B412,
    ]),
    ("snow2 128-bit key", KAT_KEY[:4], KAT_IV, [
        0x7439F824, 0x889F2885, 0xA685E203, 0xCE2AA53F,
        0x43170AE0, 0xE976528B, 0x77201A6A, 0x0A985E6D,
    ]),
]

#: (label, key, iv, first eight words after the default discard) for KDFC-SNOW
KDFC_KATS = [
    ("kdfc zero key", [0] * 8, [0] * 4, [
        0xEFE03F6E, 0x1E580FA2, 0x41389C1A, 0x410DD452,
        0xF336F6E4, 0xB5A42CA2, 0x553853A0, 0xC1695720,
    ]),
    ("kdfc 256-bit key", KAT_KEY, KAT_IV, [
        0x4668F2B6, 0x8C1F8CC4, 0xB770CB47, 0x4CB1AF7A,
        0x99F903A7, 0x7DC2E350, 0xEB1F0C19, 0xEFE0DA38,
    ]),
]

#: the battery on the first 10^5 bits of the SNOW 2.0 zero-key stream
BATTERY_KAT_WORDS = 3125
BATTERY_KAT_TOLERANCE = 1e-9
BATTERY_KAT_P = {
    "monobit": 0.989907739039596,
    "block-frequency": 0.7286674053889364,
    "runs": 0.18412620496934837,
    "longest-run-of-ones": 0.25239029036507243,
    "binary-matrix-rank": 0.2774287865068219,
    "cumulative-sums-forward": 0.8090429483621401,
    "cumulative-sums-reverse": 0.8203346518941096,
    "serial": 0.41392105986365435,
    "approximate-entropy": 0.4290022895577942,
    "linear-complexity": 0.39043644091731977,
}

#: output digests for --seed DIGEST_SEED, one per workload
DIGEST_SEED = 1
DIGESTS = {
    "keyed-init": "3179a532bd151e01ec6b769ffc6e498db0522092a8733d76aeb3b724ef4e69c5",
    "snow2-stream": "34c401d90b56c5f55915702d3e933013f28c3d0e2dc668524901a06f4c77d87e",
    "kdfc-stream": "1659aa412600e857d78ad3c8aa4cb37fb646f1c0132bfa240a870c7b332e665c",
    "config-gen": "4b4ff8801de34a4639b2d639d4ef9d6ba1ebf5d5cfd66ae6da58a36902e4be2a",
}
