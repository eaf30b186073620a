"""Network ground truth: hosts, vulnerability catalogs, and synthetic topologies.

Everything downstream (graph generation, planning, deception placement) is a
pure function of a NetworkModel. Costs are CVSS exploitability subscores
normalized into [0, 1]; a vulnerability is placeable on a host only when the
host's operating system is in the vulnerability's affected set.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ConfigurationError, ValidationError

# Default location label for an attacker that is not a host of the network.
EXTERNAL = "internet"


class CvssVersion(str, Enum):
    V2 = "V2"
    V3 = "V3"


# Maximum exploitability subscore per CVSS version; also the normalization divisor.
_SUBSCORE_MAX = {CvssVersion.V2: 10.0, CvssVersion.V3: 3.9}


class Layer(str, Enum):
    """Generator metadata: which ring of the layered topology a host sits in."""

    DMZ = "DMZ"
    INTERNAL = "Internal"
    SECURED = "Secured"


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VulnerabilityRecord:
    """One catalog entry: a CVE-style id plus the raw exploitability subscore."""

    vuln_id: str
    cvss_version: CvssVersion
    exploitability_subscore: float
    affected_os: frozenset[str]

    def __post_init__(self) -> None:
        if not self.vuln_id:
            raise ValidationError("vulnerability id must be non-empty")
        object.__setattr__(self, "cvss_version", CvssVersion(self.cvss_version))
        object.__setattr__(self, "affected_os", frozenset(self.affected_os))
        if not self.affected_os:
            raise ValidationError(f"{self.vuln_id}: affected_os must be non-empty")
        limit = _SUBSCORE_MAX[self.cvss_version]
        if not 0.0 <= self.exploitability_subscore <= limit:
            raise ValidationError(
                f"{self.vuln_id}: subscore {self.exploitability_subscore} outside "
                f"[0, {limit}] for CVSS {self.cvss_version.value}"
            )

    def to_dict(self) -> dict:
        return {
            "vuln_id": self.vuln_id,
            "cvss_version": self.cvss_version.value,
            "exploitability_subscore": self.exploitability_subscore,
            "affected_os": sorted(self.affected_os),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "VulnerabilityRecord":
        return cls(
            vuln_id=data["vuln_id"],
            cvss_version=CvssVersion(data["cvss_version"]),
            exploitability_subscore=float(data["exploitability_subscore"]),
            affected_os=frozenset(data["affected_os"]),
        )


Catalog = dict[str, VulnerabilityRecord]


@dataclass(frozen=True)
class Host:
    host_id: str
    os: str
    installed_vulns: frozenset[str] = frozenset()
    layer: Layer = Layer.INTERNAL

    def __post_init__(self) -> None:
        if not self.host_id:
            raise ValidationError("host id must be non-empty")
        if not self.os:
            raise ValidationError(f"{self.host_id}: os must be declared")
        object.__setattr__(self, "installed_vulns", frozenset(self.installed_vulns))
        object.__setattr__(self, "layer", Layer(self.layer))

    def to_dict(self) -> dict:
        return {
            "host_id": self.host_id,
            "os": self.os,
            "installed_vulns": sorted(self.installed_vulns),
            "layer": self.layer.value,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Host":
        return cls(
            host_id=data["host_id"],
            os=data["os"],
            installed_vulns=frozenset(data.get("installed_vulns", ())),
            layer=Layer(data.get("layer", Layer.INTERNAL)),
        )


@dataclass(frozen=True)
class Goal:
    """The attacker objective: a privilege level on a specific host."""

    host_id: str
    level: str = "root"

    def to_dict(self) -> dict:
        return {"host_id": self.host_id, "level": self.level}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Goal":
        return cls(host_id=data["host_id"], level=data.get("level", "root"))


class Assignment(NamedTuple):
    """A fake vulnerability planted by the defender: its (host, vulnerability) pair.

    Files write `"fake": true` with each one. Reading refuses any other value,
    an entry that is not an object, and ids that are not strings.
    """

    host_id: str
    vuln_id: str

    def to_dict(self) -> dict:
        return {"host_id": self.host_id, "vuln_id": self.vuln_id, "fake": True}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Assignment":
        if not isinstance(data, Mapping):
            raise TypeError(f"an assignment must be an object, got {data!r}")
        fake = data.get("fake", True)
        if fake is not True:
            raise ValueError(f"an assignment's fake must be true (only fakes are planted), got {fake!r}")
        host_id, vuln_id = data["host_id"], data["vuln_id"]
        if not isinstance(host_id, str) or not isinstance(vuln_id, str):
            raise TypeError(f"an assignment's ids must be strings, got {host_id!r} and {vuln_id!r}")
        return cls(host_id, vuln_id)


@dataclass(frozen=True)
class NetworkModel:
    """Hosts, reachability, the attacker's entry point, and the goal.

    `catalog` holds every vulnerability record the scenario knows about,
    installed or merely placeable; hosts reference records by id. Reachability
    is a directed host-pair relation; the attacker entry may be a host id or
    the distinguished external location.

    A network is validated when it is built and must not be mutated after
    use: its first evaluation or `PlacementProblem` keeps its compiled graph
    and the deception-free optimum b in the instance's `__dict__`, as
    `functools.cached_property` keeps a value on a frozen dataclass, and a
    graph built on it is generated when first read. A copy made with
    `dataclasses.replace` starts without them.
    """

    hosts: dict[str, Host]
    reachability: frozenset[tuple[str, str]]
    attacker_entry: str
    goal: Goal
    catalog: Catalog = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "reachability",
            frozenset((str(a), str(b)) for a, b in self.reachability),
        )
        for host_id, host in self.hosts.items():
            if host_id != host.host_id:
                raise ValidationError(f"host map key {host_id!r} != host id {host.host_id!r}")
            for vuln_id in host.installed_vulns:
                record = self.catalog.get(vuln_id)
                if record is None:
                    raise ValidationError(f"{host_id}: installed vuln {vuln_id} not in catalog")
                if host.os not in record.affected_os:
                    raise ValidationError(
                        f"{host_id}: installed vuln {vuln_id} does not affect os {host.os}"
                    )
        valid_endpoints = set(self.hosts) | {self.attacker_entry}
        for src, dst in self.reachability:
            if src not in valid_endpoints or dst not in self.hosts:
                raise ValidationError(f"reachability edge ({src}, {dst}) references unknown host")
        if self.goal.host_id not in self.hosts:
            raise ValidationError(f"goal host {self.goal.host_id} not in network")
        if not self.attacker_entry:
            raise ValidationError("attacker_entry must be set")

    # -- convenience -------------------------------------------------------

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def sorted_hosts(self) -> list[Host]:
        return [self.hosts[h] for h in sorted(self.hosts)]

    # -- serialization (the catalog travels beside it: network_bundle) ------

    def to_dict(self) -> dict:
        return {
            "hosts": [h.to_dict() for h in self.sorted_hosts()],
            "reachability": [[a, b] for a, b in sorted(self.reachability)],
            "attacker_entry": self.attacker_entry,
            "goal": self.goal.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping, catalog: Catalog) -> "NetworkModel":
        hosts = {h["host_id"]: Host.from_dict(h) for h in data["hosts"]}
        return cls(
            hosts=hosts,
            reachability=frozenset((a, b) for a, b in data["reachability"]),
            attacker_entry=data["attacker_entry"],
            goal=Goal.from_dict(data["goal"]),
            catalog=catalog,
        )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def normalize_cost(record: VulnerabilityRecord) -> float:
    """Exploitability subscore scaled into [0, 1] by the version's maximum."""
    return record.exploitability_subscore / _SUBSCORE_MAX[record.cvss_version]


def compatible_vulns(catalog: Catalog, host: Host) -> list[str]:
    """Catalog entries that affect the host's OS and are not already installed.

    Ascending vuln_id, so downstream sampling and search are deterministic.
    """
    return sorted(
        vuln_id
        for vuln_id, record in catalog.items()
        if host.os in record.affected_os and vuln_id not in host.installed_vulns
    )


def compatible_pairs(network: NetworkModel) -> list[Assignment]:
    """Every plantable (host, vulnerability) pair: by host id, then vuln id."""
    return [
        Assignment(host_id, vuln_id)
        for host_id in sorted(network.hosts)
        for vuln_id in compatible_vulns(network.catalog, network.hosts[host_id])
    ]


def check_assignment(network: NetworkModel, assignment: Assignment) -> None:
    """Raise unless the assignment is OS-compatible and not a duplicate."""
    host = network.hosts.get(assignment.host_id)
    if host is None:
        raise ValidationError(f"assignment targets unknown host {assignment.host_id}")
    record = network.catalog.get(assignment.vuln_id)
    if record is None:
        raise ValidationError(f"assignment references unknown vuln {assignment.vuln_id}")
    if host.os not in record.affected_os:
        raise ValidationError(
            f"assignment ({assignment.host_id}, {assignment.vuln_id}) incompatible: "
            f"{assignment.vuln_id} does not affect {host.os}"
        )
    if assignment.vuln_id in host.installed_vulns:
        raise ValidationError(
            f"assignment ({assignment.host_id}, {assignment.vuln_id}) duplicates an installed vuln"
        )


def check_placement(network: NetworkModel, assignments: Iterable[Assignment]) -> list[Assignment]:
    """The distinct assignments, sorted.

    Raises ValidationError on the first of them that fails `check_assignment`.
    """
    placement = sorted(set(assignments))
    for a in placement:
        check_assignment(network, a)
    return placement


def default_catalog() -> Catalog:
    """A small built-in catalog for demos and generated networks.

    Subscores are picked so every normalized cost is an exact binary fraction;
    sums of costs then compare exactly across summation orders.
    """
    spec = [
        ("CVE-2014-0160", 10.0, ["debian11", "ubuntu22"]),
        ("CVE-2015-1635", 10.0, ["win2019"]),
        ("CVE-2016-0800", 7.5, ["debian11", "rhel9"]),
        ("CVE-2017-0144", 8.75, ["win10", "win2019"]),
        ("CVE-2017-5638", 8.75, ["ubuntu22", "rhel9"]),
        ("CVE-2018-7600", 7.5, ["ubuntu22"]),
        ("CVE-2019-0708", 6.25, ["win10"]),
        ("CVE-2019-11510", 6.25, ["rhel9"]),
        ("CVE-2020-0601", 5.0, ["win10", "win2019"]),
        ("CVE-2020-1472", 5.0, ["win2019"]),
        ("CVE-2021-26855", 3.75, ["win2019"]),
        ("CVE-2021-34527", 3.75, ["win10"]),
        ("CVE-2021-44228", 2.5, ["debian11", "ubuntu22", "rhel9"]),
        ("CVE-2022-0847", 2.5, ["debian11", "ubuntu22"]),
        ("CVE-2022-26134", 1.25, ["rhel9"]),
        ("CVE-2023-4863", 1.25, ["debian11", "macos14"]),
        ("CVE-2023-23397", 5.0, ["macos14", "win10"]),
        ("CVE-2024-3094", 2.5, ["macos14"]),
    ]
    return {
        vuln_id: VulnerabilityRecord(
            vuln_id=vuln_id,
            cvss_version=CvssVersion.V2,
            exploitability_subscore=subscore,
            affected_os=frozenset(oses),
        )
        for vuln_id, subscore, oses in spec
    }


# Share of generated hosts in the DMZ, Internal and Secured layers.
_LAYER_FRACTIONS = (0.2, 0.5, 0.3)
# Installed vulnerabilities per generated host: uniform on this range, capped by the OS's pool.
_VULNS_PER_HOST = (1, 3)


def generate_network(
    n_hosts: int,
    catalog: Catalog,
    seed: int,
    dead_hosts: int = 0,
) -> NetworkModel:
    """Build a three-layer synthetic network, deterministic for a fixed seed.

    The external attacker reaches every DMZ host, each Internal host is
    reachable from at least one DMZ host, each Secured host from at least one
    Internal host; the goal is the last Secured host. Every host receives at
    least one installed vulnerability unless `dead_hosts` asks for that many
    vulnerability-free (non-goal) hosts.
    """
    if n_hosts < 3:
        raise ConfigurationError("n_hosts too small to populate all three layers")
    if not 0 <= dead_hosts < n_hosts:
        raise ConfigurationError("dead_hosts must be in [0, n_hosts)")

    by_os: dict[str, list[str]] = {}
    for vuln_id, record in sorted(catalog.items()):
        for os_name in record.affected_os:
            by_os.setdefault(os_name, []).append(vuln_id)
    usable_os = sorted(os_name for os_name, vulns in by_os.items() if vulns)
    if not usable_os:
        raise ConfigurationError("catalog contains no usable OS")

    n_dmz = max(1, round(_LAYER_FRACTIONS[0] * n_hosts))
    n_sec = max(1, round(_LAYER_FRACTIONS[2] * n_hosts))
    n_int = n_hosts - n_dmz - n_sec
    if n_int < 1:
        raise ConfigurationError("n_hosts too small to populate all three layers")

    rng = random.Random(seed)
    width = max(2, len(str(n_hosts)))
    ids = [f"h{i:0{width}d}" for i in range(1, n_hosts + 1)]
    layers = (
        [(h, Layer.DMZ) for h in ids[:n_dmz]]
        + [(h, Layer.INTERNAL) for h in ids[n_dmz : n_dmz + n_int]]
        + [(h, Layer.SECURED) for h in ids[n_dmz + n_int :]]
    )
    goal_host = ids[-1]

    dead: set[str] = set()
    if dead_hosts:
        eligible = [h for h in ids if h != goal_host]
        dead = set(rng.sample(eligible, dead_hosts))

    hosts: dict[str, Host] = {}
    for host_id, layer in layers:
        os_name = rng.choice(usable_os)
        if host_id in dead:
            installed: frozenset[str] = frozenset()
        else:
            pool = by_os[os_name]
            count = min(rng.randint(*_VULNS_PER_HOST), len(pool))
            installed = frozenset(rng.sample(pool, count))
        hosts[host_id] = Host(host_id=host_id, os=os_name, installed_vulns=installed, layer=layer)

    dmz = ids[:n_dmz]
    internal = ids[n_dmz : n_dmz + n_int]
    secured = ids[n_dmz + n_int :]
    edges: set[tuple[str, str]] = {(EXTERNAL, h) for h in dmz}
    for layer_hosts, parents in ((internal, dmz), (secured, internal)):
        for host_id in layer_hosts:
            n_parents = rng.randint(1, min(3, len(parents)))
            for parent in rng.sample(parents, n_parents):
                edges.add((parent, host_id))
    # A little lateral movement inside the internal layer; may create cycles.
    for host_id in internal:
        if len(internal) > 1 and rng.random() < 0.3:
            other = rng.choice([h for h in internal if h != host_id])
            edges.add((other, host_id))

    return NetworkModel(
        hosts=hosts,
        reachability=frozenset(edges),
        attacker_entry=EXTERNAL,
        goal=Goal(host_id=goal_host),
        catalog=dict(catalog),
    )


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


@contextmanager
def malformed(path: str | Path, what: str) -> Iterator[None]:
    """Turn a KeyError, TypeError or ValueError from reading `path` into a ValidationError naming it;
    a ValidationError from the checks of what the file holds is prefixed with the path."""
    try:
        yield
    except ConfigurationError:
        raise
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed {what} file ({type(exc).__name__}: {exc})") from None


def catalog_to_json(catalog: Catalog) -> str:
    records = [catalog[v].to_dict() for v in sorted(catalog)]
    return json.dumps(records, indent=2) + "\n"


def load_catalog(path: str | Path) -> Catalog:
    """Read a catalog file. JSON arrays and CSV are both accepted.

    CSV columns: vuln_id, cvss_version, exploitability_subscore, affected_os
    (affected_os entries separated by semicolons).
    """
    path = Path(path)
    with malformed(path, "catalog"):
        text = path.read_text()
        if path.suffix.lower() == ".csv":
            # a short row reads "" for its missing fields, which the checks below reject
            records = [
                VulnerabilityRecord(
                    vuln_id=row["vuln_id"].strip(),
                    cvss_version=CvssVersion(row["cvss_version"].strip()),
                    exploitability_subscore=float(row["exploitability_subscore"]),
                    affected_os=frozenset(
                        os_name.strip() for os_name in row["affected_os"].split(";") if os_name.strip()
                    ),
                )
                for row in csv.DictReader(io.StringIO(text), restval="")
            ]
        else:
            records = [VulnerabilityRecord.from_dict(entry) for entry in json.loads(text)]
        return _catalog_of(records)


def _catalog_of(records: Iterable[VulnerabilityRecord]) -> Catalog:
    """The records by id; ValidationError on an id given twice."""
    catalog: Catalog = {}
    for record in records:
        if record.vuln_id in catalog:
            raise ValidationError(f"duplicate catalog entry {record.vuln_id}")
        catalog[record.vuln_id] = record
    return catalog


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog file; a .csv suffix selects CSV, anything else JSON."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["vuln_id", "cvss_version", "exploitability_subscore", "affected_os"])
        for vuln_id in sorted(catalog):
            rec = catalog[vuln_id]
            writer.writerow(
                [
                    rec.vuln_id,
                    rec.cvss_version.value,
                    rec.exploitability_subscore,
                    ";".join(sorted(rec.affected_os)),
                ]
            )
        path.write_text(buf.getvalue())
        return
    path.write_text(catalog_to_json(catalog))


def network_bundle(network: NetworkModel) -> dict:
    """The network with its catalog: {"catalog": records by id, "network": the network}."""
    return {
        "catalog": [network.catalog[k].to_dict() for k in sorted(network.catalog)],
        "network": network.to_dict(),
    }


def network_to_json(network: NetworkModel) -> str:
    return json.dumps(network_bundle(network), indent=2, sort_keys=True) + "\n"


def load_network(path: str | Path, catalog: Catalog | None = None) -> NetworkModel:
    """Read a network file, a bundle as `save_network` writes it or a bare network.

    A given `catalog` replaces a bundle's; with neither (or an empty one), `default_catalog()`.
    """
    with malformed(path, "network"):
        data = json.loads(Path(path).read_text())
        bundled = isinstance(data, dict) and "network" in data
        if catalog is None:
            records = data.get("catalog", []) if bundled else []
            catalog = _catalog_of(map(VulnerabilityRecord.from_dict, records)) or default_catalog()
        return NetworkModel.from_dict(data["network"] if bundled else data, catalog)


def save_network(network: NetworkModel, path: str | Path) -> None:
    """Write the network bundled with its catalog, as `decoygraph generate` does."""
    Path(path).write_text(network_to_json(network))
