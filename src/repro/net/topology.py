"""Sites, hosts, and the geographic latency model.

The paper's evaluation emulates control centers and data centers "spanning
about 250 miles of the US East Coast" on a LAN, with inter-site latencies
emulated. We reproduce that: a :class:`Topology` knows every site, every
host's site, one-way propagation latencies between sites, and LAN latency
inside a site. :func:`east_coast_topology` builds the canonical evaluation
topology used by the Table II and Figure 2 benchmarks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError


class SiteKind(enum.Enum):
    """What a site is, which decides what its replicas are allowed to do."""

    ON_PREMISES = "on_premises"
    DATA_CENTER = "data_center"
    CLIENT = "client"


@dataclass
class Site:
    """A geographic site hosting replicas or clients."""

    name: str
    kind: SiteKind
    hosts: List[str] = field(default_factory=list)

    @property
    def is_on_premises(self) -> bool:
        return self.kind is SiteKind.ON_PREMISES

    @property
    def is_data_center(self) -> bool:
        return self.kind is SiteKind.DATA_CENTER


class Topology:
    """The static picture: sites, hosts, and raw link latencies.

    Latencies are *one-way propagation* times in seconds for the direct
    physical link between two sites; the overlay layer decides routing when
    direct links fail. Latency entries are symmetric.
    """

    def __init__(self, lan_latency: float = 0.0005):
        self.lan_latency = lan_latency
        self._sites: Dict[str, Site] = {}
        self._host_site: Dict[str, str] = {}
        self._host_site_view = MappingProxyType(self._host_site)
        self._links: Dict[Tuple[str, str], float] = {}

    # -- construction --------------------------------------------------------

    def add_site(self, name: str, kind: SiteKind) -> Site:
        if name in self._sites:
            raise ConfigurationError(f"duplicate site {name!r}")
        site = Site(name=name, kind=kind)
        self._sites[name] = site
        return site

    def add_host(self, host: str, site_name: str) -> None:
        if host in self._host_site:
            raise ConfigurationError(f"duplicate host {host!r}")
        site = self._require_site(site_name)
        site.hosts.append(host)
        self._host_site[host] = site_name

    def add_link(self, site_a: str, site_b: str, one_way_latency: float) -> None:
        """Declare a direct physical link between two sites."""
        self._require_site(site_a)
        self._require_site(site_b)
        if site_a == site_b:
            raise ConfigurationError("a site does not link to itself")
        if one_way_latency <= 0:
            raise ConfigurationError("link latency must be positive")
        self._links[_ordered(site_a, site_b)] = one_way_latency

    # -- queries --------------------------------------------------------------

    @property
    def sites(self) -> List[Site]:
        return list(self._sites.values())

    @property
    def links(self) -> Dict[Tuple[str, str], float]:
        return dict(self._links)

    def site_of(self, host: str) -> Site:
        site_name = self._host_site.get(host)
        if site_name is None:
            raise ConfigurationError(f"unknown host {host!r}")
        return self._sites[site_name]

    @property
    def host_sites(self) -> Mapping[str, str]:
        """Live read-only map of host name -> site name (for hot paths
        that would otherwise call :meth:`site_of` per message)."""
        return self._host_site_view

    def get_site(self, name: str) -> Site:
        return self._require_site(name)

    def has_host(self, host: str) -> bool:
        return host in self._host_site

    def link_latency(self, site_a: str, site_b: str) -> Optional[float]:
        """Direct link latency, or None if no direct link exists."""
        return self._links.get(_ordered(site_a, site_b))

    def hosts_in(self, site_name: str) -> List[str]:
        return list(self._require_site(site_name).hosts)

    def _require_site(self, name: str) -> Site:
        site = self._sites.get(name)
        if site is None:
            raise ConfigurationError(f"unknown site {name!r}")
        return site


def _ordered(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


# Canonical evaluation sites. Latencies are one-way seconds, chosen so that
# an East-Coast deployment (~250 miles between the furthest sites) gives the
# Spire f=1 baseline an average update latency near the paper's ~52 ms once
# the Prime round structure is accounted for.
CONTROL_CENTER_A = "cc-a"
CONTROL_CENTER_B = "cc-b"
DATA_CENTER_1 = "dc-1"
DATA_CENTER_2 = "dc-2"
DATA_CENTER_3 = "dc-3"
CLIENT_SITE = "field"


def east_coast_topology(
    num_data_centers: int = 2,
    lan_latency: float = 0.0005,
) -> Topology:
    """The emulated East-Coast SCADA deployment from Section VII.

    Two control centers (on-premises) roughly 5 ms apart, data centers
    8-12 ms from the control centers, and a client site (substation field
    network) near the control centers. Every pair of sites has a direct
    link; the overlay can also route around a cut link through a third
    site, mirroring a Spines mesh.
    """
    if not 1 <= num_data_centers <= 3:
        raise ConfigurationError("evaluation topology supports 1-3 data centers")
    topo = Topology(lan_latency=lan_latency)
    topo.add_site(CONTROL_CENTER_A, SiteKind.ON_PREMISES)
    topo.add_site(CONTROL_CENTER_B, SiteKind.ON_PREMISES)
    topo.add_site(CLIENT_SITE, SiteKind.CLIENT)
    dc_names = [DATA_CENTER_1, DATA_CENTER_2, DATA_CENTER_3][:num_data_centers]
    for name in dc_names:
        topo.add_site(name, SiteKind.DATA_CENTER)

    # One-way latencies (seconds), mirroring the Spire testbed geometry:
    # the two control centers sit at the ends of the ~250-mile corridor
    # (~6 ms one way) with the commercial data centers *between* them, so
    # quorums that include a data-center replica are no slower than the
    # direct control-center path. Clients (substations) are near the CCs.
    topo.add_link(CONTROL_CENTER_A, CONTROL_CENTER_B, 0.0085)
    topo.add_link(CLIENT_SITE, CONTROL_CENTER_A, 0.0040)
    topo.add_link(CLIENT_SITE, CONTROL_CENTER_B, 0.0045)
    dc_latencies = {
        DATA_CENTER_1: (0.0040, 0.0060),   # (to cc-a, to cc-b)
        DATA_CENTER_2: (0.0060, 0.0040),
        DATA_CENTER_3: (0.0050, 0.0050),
    }
    for name in dc_names:
        to_a, to_b = dc_latencies[name]
        topo.add_link(name, CONTROL_CENTER_A, to_a)
        topo.add_link(name, CONTROL_CENTER_B, to_b)
    # Inter-data-center links complete the Spines mesh.
    for i, name_i in enumerate(dc_names):
        for name_j in dc_names[i + 1 :]:
            topo.add_link(name_i, name_j, 0.0020)
    return topo
