"""Cluster assembly: API server + nodes + scheduler + component inventory.

The component inventory (control-plane services, node components, add-ons
with exact versions) is what the KBOM generator (M12) catalogs and what
the Kubernetes CVE feed matches against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.clock import SimClock
from repro.common.errors import CapacityError, NotFoundError, QuarantineError
from repro.common.events import EventBus
from repro.orchestrator.kube.apiserver import ApiServer
from repro.orchestrator.kube.objects import Namespace, NetworkPolicy, Pod, PodSpec
from repro.orchestrator.kube.rbac import RbacAuthorizer
from repro.virt.vm import VirtualMachine

# The one GENIO Kubernetes cluster: the source of its events and the
# name its KBOM carries.
CLUSTER_NAME = "genio-edge"


@dataclass
class ClusterComponent:
    """One control-plane/node component or add-on (KBOM raw material)."""

    name: str
    version: str
    kind: str          # controlplane | node | addon
    image: str = ""


class KubeCluster:
    """One GENIO Kubernetes cluster spanning an OLT's worker VMs."""

    def __init__(
        self,
        rbac: Optional[RbacAuthorizer] = None,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.clock = clock or SimClock()
        self.bus = bus or EventBus()
        self.api = ApiServer(rbac=rbac, clock=self.clock, bus=self.bus)
        self.nodes: Dict[str, VirtualMachine] = {}
        self.node_labels: Dict[str, Dict[str, str]] = {}
        self.cordoned: set = set()   # nodes refusing new pods
        self.pods: Dict[str, Pod] = {}
        self.namespaces: Dict[str, Namespace] = {"default": Namespace("default")}
        self.network_policies: List[NetworkPolicy] = []
        version = self.api.config.version
        self.components: List[ClusterComponent] = [
            ClusterComponent("kube-apiserver", version, "controlplane",
                             f"registry.k8s.io/kube-apiserver:v{version}"),
            ClusterComponent("kube-controller-manager", version, "controlplane",
                             f"registry.k8s.io/kube-controller-manager:v{version}"),
            ClusterComponent("kube-scheduler", version, "controlplane",
                             f"registry.k8s.io/kube-scheduler:v{version}"),
            ClusterComponent("etcd", "3.5.1", "controlplane",
                             "registry.k8s.io/etcd:3.5.1"),
            ClusterComponent("kubelet", version, "node"),
            ClusterComponent("kube-proxy", version, "node"),
            ClusterComponent("containerd", "1.6.8", "node"),
            ClusterComponent("coredns", "1.8.6", "addon",
                             "registry.k8s.io/coredns:v1.8.6"),
            ClusterComponent("calico", "3.24.1", "addon"),
        ]

    # -- topology ------------------------------------------------------------------

    def add_node(self, vm: VirtualMachine,
                 labels: Optional[Dict[str, str]] = None) -> None:
        self.nodes[vm.runtime.node_name] = vm
        self.node_labels[vm.runtime.node_name] = dict(labels or {})

    def add_namespace(self, namespace: Namespace) -> None:
        self.namespaces[namespace.name] = namespace

    def add_network_policy(self, policy: NetworkPolicy) -> None:
        self.network_policies.append(policy)

    def ingress_allowed(self, from_namespace: str, to_namespace: str) -> bool:
        """Evaluate namespace-to-namespace reachability under policies."""
        policies = [p for p in self.network_policies if p.namespace == to_namespace]
        if not policies:
            return True  # no policy -> default allow (the k8s default)
        return any(p.allows(from_namespace) for p in policies)

    # -- scheduling ---------------------------------------------------------------------

    def schedule(self, spec: PodSpec) -> Pod:
        """Place a pod on a fitting node and start its container.

        :raises NotFoundError: unknown namespace.
        :raises CapacityError: no node fits.
        :raises QuarantineError: a runtime admission hook refused the image.
        """
        if spec.namespace not in self.namespaces:
            raise NotFoundError(f"namespace {spec.namespace} does not exist")
        last_quarantine: Optional[QuarantineError] = None
        for node_name, vm in sorted(self.nodes.items()):
            if not vm.running or node_name in self.cordoned:
                continue
            labels = self.node_labels.get(node_name, {})
            if any(labels.get(k) != v for k, v in spec.node_selector.items()):
                continue
            try:
                container = vm.runtime.run(spec.to_container_spec())
            except CapacityError:
                continue
            except QuarantineError as exc:
                last_quarantine = exc
                continue
            pod = Pod(spec=spec, node=node_name,
                      container_id=container.id, phase="Running")
            self.pods[pod.key] = pod
            self.bus.emit("kube.scheduled", CLUSTER_NAME, self.clock.now,
                          pod=pod.key, node=node_name, tenant=spec.tenant)
            return pod
        if last_quarantine is not None:
            raise last_quarantine
        raise CapacityError(f"no node can fit pod {spec.namespace}/{spec.name}")

    def cordon(self, node_name: str) -> List[Pod]:
        """Refuse new pods on a node and drain the existing ones.

        Used by the attestation gate: a node whose platform state fails
        verification takes no workloads until it re-attests clean.
        """
        if node_name not in self.nodes:
            raise NotFoundError(f"no node {node_name}")
        self.cordoned.add(node_name)
        drained = [pod for pod in list(self.pods.values())
                   if pod.node == node_name]
        for pod in drained:
            self.evict(pod.key)
        self.bus.emit("kube.cordon", CLUSTER_NAME, self.clock.now,
                      node=node_name, drained=len(drained))
        return drained

    def uncordon(self, node_name: str) -> None:
        self.cordoned.discard(node_name)

    def evict(self, pod_key: str) -> None:
        pod = self.pods.pop(pod_key, None)
        if pod is None:
            raise NotFoundError(f"no pod {pod_key}")
        vm = self.nodes[pod.node]
        vm.runtime.stop(pod.container_id)

    def component_versions(self) -> Dict[str, str]:
        return {c.name: c.version for c in self.components}
