"""lofiq: low-bit quantization formats, PTQ transforms, and SQNR analysis."""

from .codebook import (
    Codebook,
    FpFormatSpec,
    builtin_spec,
    enumerate_codebook,
    project,
)
from .hif4 import Hif4Quantized, hif4_dequantize, hif4_quantize
from .hif8 import (
    ScaledHif8Quantized,
    hif8_enumerate,
    hif8_quantize,
    hif8_scaled_dequantize,
    hif8_scaled_quantize,
)
from .intquant import IntQuantized, int_dequantize, int_quantize_asymmetric, int_quantize_symmetric
from .metrics import FidelityReport, SyntheticSpec, compare_formats, emit_report, sqnr, synth
from .mx import MxQuantized, mx_dequantize, mx_quantize
from .nvfp4 import Nvfp4Quantized, nvfp4_dequantize, nvfp4_quantize
from .ptq import (
    LowRankBranch,
    SmoothingPlan,
    apply_smoothing,
    search_alpha,
    smooth_scales,
    smoothquant_pipeline,
    svd_split,
    svdquant_pipeline,
)
from .registry import parse_format
from .tensor import Tensor, load_tensors, save_tensors, tensor

__version__ = "0.1.0"
