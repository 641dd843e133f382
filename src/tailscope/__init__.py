"""Trajectory tailness analytics: differentiable rarity metrics for
multi-agent driving scenes, their fusion into a Tail Index, the prototype
memory maintained around it, and forecast evaluation with a worst-case
protocol.

The names below are re-exported lazily (PEP 562): ``tailscope.evaluate`` or
``from tailscope import evaluate`` imports only the module that defines it,
so a command that needs one layer does not pay for importing the others.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "ConfigurationError DegenerateInputWarning ParseError TailscopeError UsageError "
    "ValidationError",
    "evaluation": "EvalReport ForecastSample LossWeights evaluate min_ade min_fde miss_rate "
    "parse_forecast_jsonl rmse task_loss total_loss worst_case_subsets",
    "interaction": "InteractiveMetrics RssParams compute_interactive global_scene_risk ittc_risk "
    "rss_lateral rss_longitudinal",
    "intrinsic": "IntrinsicMetrics compute_intrinsic",
    "memory": "AdaptationBatch CategoryPartition CognitiveSetParams GateMlp PrototypeMemory "
    "allocation augment default_tail_bias initialize_memory inner_update partition_categories "
    "proto_loss proto_loss_and_grad similarity update_prototypes vigilance_adjust",
    "perceiver": "DatasetStats GaussianLayer PerceiverParams TailIndexResult bayes_forward "
    "default_params fusion_weights kl_diag_gaussian normalize_features perceive "
    "rank_supervision_loss tail_index",
    "scene": "AgentState KinematicSeries Scene Trajectory derive_kinematics dump_scenes "
    "load_scenes parse_scene_csv scenes_to_csv",
    "synth": "ScenarioSpec generate",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
