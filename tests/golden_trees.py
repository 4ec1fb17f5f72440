"""Golden per-tree values over a grid of simulation configs.

Recorded at commit c489043, before the frontier expansion's per-cell array
passes were cut; the expansion must keep reproducing them bit for bit.
Tree ``i`` of :func:`grid` runs on ``RngStream(SEED, i)``.
``MEASURES`` holds the repr-exact (biomass, living count) pairs that
``tree_measures`` returns at ``TIMES``; ``COLUMNS_SHA256`` hashes the raw
bytes of the eight ``simulate_tree`` columns, tree after tree.
"""
import itertools

from malthus.age_model import AlphaFamily, TruncatedGaussian
from malthus.size_sim import (
    AutoRegressive,
    DrawnFromKernel,
    Exponential,
    FixedRate,
    Linear,
    Memoryless,
    SimConfig,
    SizeDivisionRate,
    Symmetric,
    UniformAsymmetric,
)

SEED = 11
HORIZON = 6.0
TIMES = (3.0, 6.0)
COLUMNS = ("parent", "bit", "b", "zeta", "xi", "tau", "d", "division_size")


def grid():
    """(label, config) for both hazard modes, two betas, both growth laws,
    both splits, both kernels and both root rates."""
    law = AlphaFamily(TruncatedGaussian(0.0, 2.0, 0.7), 0.6)
    for mode, beta, growth, split, kernel, root in itertools.product(
        ("unit_size", "unit_time"),
        (0.5, 2.0),
        (Exponential(), Linear()),
        (Symmetric(), UniformAsymmetric(0.2)),
        (Memoryless(law), AutoRegressive(law, 0.5)),
        (FixedRate(1.0), DrawnFromKernel()),
    ):
        parts = [mode, repr(beta), growth.name] + [type(x).__name__ for x in (split, kernel, root)]
        label = "/".join(parts)
        division = SizeDivisionRate(1.0, beta, mode)
        yield label, SimConfig(division, growth, split, kernel, horizon=HORIZON, root_size=2.0, root_rate=root)


COLUMNS_SHA256 = "29e23f68057b6359c7aead2d44bcb16b7d23ab51875806d4f1fc57cd1e206052"

MEASURES = {
    "unit_size/0.5/exp/Symmetric/Memoryless/FixedRate": ((49.228917570134726, 32), (868.3920776528644, 589)),
    "unit_size/0.5/exp/Symmetric/Memoryless/DrawnFromKernel": ((22.105636527832544, 20), (376.9287220541147, 270)),
    "unit_size/0.5/exp/Symmetric/AutoRegressive/FixedRate": ((37.957196707716456, 28), (718.9454274210555, 533)),
    "unit_size/0.5/exp/Symmetric/AutoRegressive/DrawnFromKernel": ((37.91709932938705, 29), (761.980846425304, 546)),
    "unit_size/0.5/exp/UniformAsymmetric/Memoryless/FixedRate": ((51.60253108957988, 37), (863.4216083752187, 623)),
    "unit_size/0.5/exp/UniformAsymmetric/Memoryless/DrawnFromKernel": ((47.30681237808364, 37), (737.4069605693851, 537)),
    "unit_size/0.5/exp/UniformAsymmetric/AutoRegressive/FixedRate": ((42.00180699850161, 26), (862.3889994183075, 613)),
    "unit_size/0.5/exp/UniformAsymmetric/AutoRegressive/DrawnFromKernel": ((41.60496202474354, 33), (802.0717341087598, 562)),
    "unit_size/0.5/linear/Symmetric/Memoryless/FixedRate": ((15.827215559296516, 8), (97.63469848550083, 59)),
    "unit_size/0.5/linear/Symmetric/Memoryless/DrawnFromKernel": ((8.98121304622729, 6), (58.97150299984014, 33)),
    "unit_size/0.5/linear/Symmetric/AutoRegressive/FixedRate": ((11.24157888333028, 7), (79.93672778843037, 51)),
    "unit_size/0.5/linear/Symmetric/AutoRegressive/DrawnFromKernel": ((11.775787235553528, 7), (76.10977552597845, 49)),
    "unit_size/0.5/linear/UniformAsymmetric/Memoryless/FixedRate": ((8.37979665787375, 5), (63.84379913476212, 41)),
    "unit_size/0.5/linear/UniformAsymmetric/Memoryless/DrawnFromKernel": ((7.810568462712595, 4), (45.58993956256317, 30)),
    "unit_size/0.5/linear/UniformAsymmetric/AutoRegressive/FixedRate": ((6.043492035906018, 4), (33.894828040645784, 19)),
    "unit_size/0.5/linear/UniformAsymmetric/AutoRegressive/DrawnFromKernel": ((11.455449343975998, 9), (80.18512974894688, 47)),
    "unit_size/2.0/exp/Symmetric/Memoryless/FixedRate": ((43.392732414879504, 29), (715.7254998262442, 476)),
    "unit_size/2.0/exp/Symmetric/Memoryless/DrawnFromKernel": ((53.46468153852458, 36), (874.3098684966601, 580)),
    "unit_size/2.0/exp/Symmetric/AutoRegressive/FixedRate": ((44.16894735118268, 33), (879.6713764549695, 575)),
    "unit_size/2.0/exp/Symmetric/AutoRegressive/DrawnFromKernel": ((39.23466754136251, 23), (765.020250231983, 494)),
    "unit_size/2.0/exp/UniformAsymmetric/Memoryless/FixedRate": ((32.94720013968172, 21), (602.2892245967637, 422)),
    "unit_size/2.0/exp/UniformAsymmetric/Memoryless/DrawnFromKernel": ((31.817320666573167, 23), (506.34009437916797, 369)),
    "unit_size/2.0/exp/UniformAsymmetric/AutoRegressive/FixedRate": ((45.32214259626922, 33), (990.6688102235636, 697)),
    "unit_size/2.0/exp/UniformAsymmetric/AutoRegressive/DrawnFromKernel": ((32.437225501114945, 24), (694.5368206368447, 501)),
    "unit_size/2.0/linear/Symmetric/Memoryless/FixedRate": ((17.105305827972582, 11), (96.86648184981804, 57)),
    "unit_size/2.0/linear/Symmetric/Memoryless/DrawnFromKernel": ((11.40430022839304, 7), (55.64407217464642, 35)),
    "unit_size/2.0/linear/Symmetric/AutoRegressive/FixedRate": ((12.481125750020087, 8), (75.88958890509507, 44)),
    "unit_size/2.0/linear/Symmetric/AutoRegressive/DrawnFromKernel": ((6.480270486846906, 4), (31.370331653652745, 21)),
    "unit_size/2.0/linear/UniformAsymmetric/Memoryless/FixedRate": ((11.762413955588999, 6), (76.62836335119542, 50)),
    "unit_size/2.0/linear/UniformAsymmetric/Memoryless/DrawnFromKernel": ((10.546129872992054, 7), (63.87748217485979, 43)),
    "unit_size/2.0/linear/UniformAsymmetric/AutoRegressive/FixedRate": ((10.100867846638998, 5), (70.78479606048793, 44)),
    "unit_size/2.0/linear/UniformAsymmetric/AutoRegressive/DrawnFromKernel": ((7.6101658515680715, 4), (45.994905678825276, 29)),
    "unit_time/0.5/exp/Symmetric/Memoryless/FixedRate": ((31.801769889644287, 15), (653.2534066341531, 267)),
    "unit_time/0.5/exp/Symmetric/Memoryless/DrawnFromKernel": ((41.86154517879998, 12), (826.2774739891768, 352)),
    "unit_time/0.5/exp/Symmetric/AutoRegressive/FixedRate": ((32.97256643124184, 13), (669.4965993236171, 257)),
    "unit_time/0.5/exp/Symmetric/AutoRegressive/DrawnFromKernel": ((76.49780802064429, 22), (1575.6493628314943, 620)),
    "unit_time/0.5/exp/UniformAsymmetric/Memoryless/FixedRate": ((38.936508008726406, 18), (843.2837575629694, 345)),
    "unit_time/0.5/exp/UniformAsymmetric/Memoryless/DrawnFromKernel": ((24.57908060066065, 13), (532.666071854014, 208)),
    "unit_time/0.5/exp/UniformAsymmetric/AutoRegressive/FixedRate": ((53.57210396117085, 24), (1209.1804996054257, 481)),
    "unit_time/0.5/exp/UniformAsymmetric/AutoRegressive/DrawnFromKernel": ((46.7005517049572, 21), (1114.4958594151944, 419)),
    "unit_time/0.5/linear/Symmetric/Memoryless/FixedRate": ((9.48365062762235, 5), (51.07746572457184, 30)),
    "unit_time/0.5/linear/Symmetric/Memoryless/DrawnFromKernel": ((14.804582315655125, 11), (100.530085392955, 64)),
    "unit_time/0.5/linear/Symmetric/AutoRegressive/FixedRate": ((17.28798118593171, 12), (140.40100382698606, 91)),
    "unit_time/0.5/linear/Symmetric/AutoRegressive/DrawnFromKernel": ((12.000833457347428, 7), (75.34993157411685, 52)),
    "unit_time/0.5/linear/UniformAsymmetric/Memoryless/FixedRate": ((11.885479863885749, 8), (74.13914105377847, 48)),
    "unit_time/0.5/linear/UniformAsymmetric/Memoryless/DrawnFromKernel": ((14.442220458550779, 9), (92.14386143345438, 63)),
    "unit_time/0.5/linear/UniformAsymmetric/AutoRegressive/FixedRate": ((23.317323273127528, 16), (169.19127780264338, 109)),
    "unit_time/0.5/linear/UniformAsymmetric/AutoRegressive/DrawnFromKernel": ((7.98761695654666, 3), (46.28029601767983, 32)),
    "unit_time/2.0/exp/Symmetric/Memoryless/FixedRate": ((30.70833314102364, 18), (625.6055415782535, 339)),
    "unit_time/2.0/exp/Symmetric/Memoryless/DrawnFromKernel": ((39.52031269815243, 20), (793.0598888034048, 464)),
    "unit_time/2.0/exp/Symmetric/AutoRegressive/FixedRate": ((58.2168160335081, 32), (1249.9302301110538, 708)),
    "unit_time/2.0/exp/Symmetric/AutoRegressive/DrawnFromKernel": ((52.79445491832633, 27), (1108.548886647237, 641)),
    "unit_time/2.0/exp/UniformAsymmetric/Memoryless/FixedRate": ((32.764074339390724, 19), (640.6586972983246, 385)),
    "unit_time/2.0/exp/UniformAsymmetric/Memoryless/DrawnFromKernel": ((34.87774598005277, 21), (590.8884544883078, 363)),
    "unit_time/2.0/exp/UniformAsymmetric/AutoRegressive/FixedRate": ((49.811747566897516, 27), (1105.554125412359, 646)),
    "unit_time/2.0/exp/UniformAsymmetric/AutoRegressive/DrawnFromKernel": ((29.65338582874363, 18), (567.8958296870743, 334)),
    "unit_time/2.0/linear/Symmetric/Memoryless/FixedRate": ((10.28874360854517, 6), (62.3718513522459, 39)),
    "unit_time/2.0/linear/Symmetric/Memoryless/DrawnFromKernel": ((9.905188837900536, 6), (58.95196582860112, 33)),
    "unit_time/2.0/linear/Symmetric/AutoRegressive/FixedRate": ((12.10950768018919, 7), (66.1576377285149, 38)),
    "unit_time/2.0/linear/Symmetric/AutoRegressive/DrawnFromKernel": ((12.483988917922154, 8), (83.03921224473599, 49)),
    "unit_time/2.0/linear/UniformAsymmetric/Memoryless/FixedRate": ((15.524313870859423, 11), (106.01633004937035, 62)),
    "unit_time/2.0/linear/UniformAsymmetric/Memoryless/DrawnFromKernel": ((15.87560031733174, 10), (92.4061430298813, 59)),
    "unit_time/2.0/linear/UniformAsymmetric/AutoRegressive/FixedRate": ((12.457889947408443, 7), (86.35582779798263, 51)),
    "unit_time/2.0/linear/UniformAsymmetric/AutoRegressive/DrawnFromKernel": ((16.653561367365622, 12), (110.5294315199901, 67)),
}
