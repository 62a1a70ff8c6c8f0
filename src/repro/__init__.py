"""genio-repro: a full simulation reproduction of "Security-by-Design at
the Telco Edge with OSS: Challenges and Lessons Learned" (DSN 2025).

Top-level convenience API — the two calls most users start from::

    from repro import build_genio_deployment, SecurityPipeline

    deployment = build_genio_deployment()
    posture = SecurityPipeline(deployment).apply()

Everything else lives in the sub-packages; see README.md for the map.

The four convenience names resolve lazily (PEP 562): ``import repro``
alone, and every sub-package import that goes through it (a spawned
fleet shard worker importing :mod:`repro.traffic.fleet`, say), never
loads the deployment model or the security pipeline it does not use.
"""

from importlib import import_module

__version__ = "1.0.0"

# Public name -> the module that defines it, imported on first access.
_LAZY = {
    "GenioDeployment": "repro.platform.genio",
    "build_genio_deployment": "repro.platform.genio",
    "SecurityPipeline": "repro.security.pipeline",
    "SecurityPosture": "repro.security.pipeline",
}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
