"""The calibrated conflict scenario.

This module encodes the paper's reported magnitudes and dates as a
scenario: initial cohort weights reproduce the June 2017 baselines
(71.0% fully-Russian hosting, 67.0% fully-Russian name service, the
NS-TLD mix of Figure 3), slow pre-conflict drifts reproduce the gradual
TLD-dependency externalisation of Figure 2, and the February–May 2022
events reproduce the provider exits of Sections 3.2–3.4 (Netnod,
Amazon, Sedo, Cloudflare, Google, Hetzner, Linode) and the WebPKI shifts
of Section 4.

The *analysis* layer never sees any of these parameters: it works purely
from simulated measurements, and the integration suite checks it recovers
the paper's numbers.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dns.name import DomainName
from ..errors import ScenarioError
from ..providers.addressing import AddressPlan
from ..providers.catalog import ProviderCatalog, standard_catalog
from ..registry.population import DomainPopulation, PopulationConfig
from ..registry.tld import TLD_RU
from ..rng import derive_rng
from ..sanctions.entity import Designation, SanctionedEntity, SanctionsAuthority
from ..sanctions.lists import SanctionsList
from ..timeline import CONFLICT_START, STUDY_DAYS, STUDY_END, STUDY_START
from .certsim import CaSpec, CertSimConfig, PkiBundle, SanctionedIssuanceSpec, simulate_pki
from .events import DomainEventLog, Field, InfraEvent
from .flows import Flow, FlowEngine, Pulse
from .manifest import ScenarioManifest
from .plans import DnsPlan, DnsPlanTable, HostingPlan, HostingPlanTable
from .variant import ScenarioVariant
from .world import World

__all__ = ["ConflictScenarioConfig", "build_world", "build_pki", "build_scenario"]

#: Real-world concurrent registration count the scale factor is against.
REAL_POPULATION = 4_950_000

# Key 2022 dates from the paper.
NETNOD_CUTOFF = _dt.date(2022, 3, 3)
AMAZON_ANNOUNCEMENT = _dt.date(2022, 3, 8)
SEDO_ANNOUNCEMENT = _dt.date(2022, 3, 9)
GOOGLE_ANNOUNCEMENT = _dt.date(2022, 3, 10)
GOOGLE_INTRA_MIGRATION = _dt.date(2022, 3, 16)
MEASUREMENT_OUTAGE = _dt.date(2021, 3, 22)


class ConflictScenarioConfig:
    """Scenario knobs; defaults reproduce the paper at 1:250 scale."""

    def __init__(
        self,
        scale: float = 250.0,
        seed: int = 20220224,
        geo_lag_days: int = 0,
        netnod_mode: str = "renumber",
        with_pki: bool = True,
        sanctioned_cert_scale: Optional[float] = None,
        sanctioned_domain_count: int = 107,
        variant: Optional["ScenarioVariant"] = None,
        scenario_id: str = "baseline",
        spec_digest: Optional[str] = None,
    ) -> None:
        if scale <= 0:
            raise ScenarioError(f"scale must be positive: {scale}")
        if netnod_mode not in ("renumber", "transfer"):
            raise ScenarioError(f"unknown netnod_mode {netnod_mode!r}")
        self.scale = scale
        self.seed = seed
        self.geo_lag_days = geo_lag_days
        #: "renumber": the cloud NS hosts get new RU addresses on March 3.
        #: "transfer": their prefix is re-announced from RU-CENTER's ASN and
        #: geolocation snapshots catch up ``geo_lag_days`` later.
        self.netnod_mode = netnod_mode
        self.with_pki = with_pki
        #: Scales the sanctioned-domain certificate volumes (ratios
        #: preserved).  The default tracks the population scale so that
        #: sanctioned certificates keep their real-world proportion to the
        #: global stream (Table 2's "all domains" side stays honest),
        #: floored to keep enough per-CA samples for stable rates.
        if sanctioned_cert_scale is None:
            sanctioned_cert_scale = max(0.05, min(1.0, 25.0 * self.scale_factor))
        self.sanctioned_cert_scale = sanctioned_cert_scale
        self.sanctioned_domain_count = sanctioned_domain_count
        #: Counterfactual world deltas (see :mod:`repro.sim.variant`) and
        #: the scenario identity the archive fingerprint is bound to.
        #: ``None``/noop variants are normalised away so a baseline config
        #: is one thing regardless of how it was constructed.
        if variant is not None and variant.is_noop():
            variant = None
        self.variant = variant
        self.scenario_id = str(scenario_id)
        self.spec_digest = spec_digest
        if self.variant is not None and self.scenario_id == "baseline":
            # A world-altering variant must never masquerade as baseline:
            # the archive fingerprint omits scenario identity for baseline
            # so its manifests stay byte-identical to pre-scenario builds.
            raise ScenarioError(
                "a non-noop variant needs its own scenario_id, not 'baseline'"
            )

    @property
    def initial_count(self) -> int:
        """Concurrent registrations on study day 0 at this scale."""
        return max(400, round(REAL_POPULATION / self.scale))

    @property
    def scale_factor(self) -> float:
        """Simulated-to-real population ratio."""
        return self.initial_count / REAL_POPULATION

    def scaled(self, real_count: float, minimum: int = 1) -> int:
        """A real-world count converted to this scale (at least ``minimum``)."""
        return max(minimum, int(round(real_count * self.scale_factor)))


# ----------------------------------------------------------------------
# Plans and initial cohort weights
# ----------------------------------------------------------------------

def _dns_plans(catalog: ProviderCatalog) -> DnsPlanTable:
    def hosts(key: str) -> List[str]:
        return [str(h.hostname) for h in catalog.get(key).ns_hosts]

    table = DnsPlanTable()
    single = [
        ("regru_dns", "regru"),
        ("rucenter_dns", "rucenter"),
        ("timeweb_dns", "timeweb"),
        ("ruhost1_dns", "ruhost1"),
        ("ruhost2_dns", "ruhost2"),
        ("ruhost3_dns", "ruhost3"),
        ("ruhost4_dns", "ruhost4"),
        ("ruhost5_dns", "ruhost5"),
        ("ruhost6_dns", "ruhost6"),
        ("beget_dns", "beget"),
        ("yandex_dns", "yandexcloud"),
        ("nsmaster_dns", "nsmasterorg"),
        ("cloudflare_dns", "cloudflare"),
        ("route53_dns", "amazon"),
        ("godaddy_dns", "godaddy"),
        ("hetzner_dns", "hetzner"),
        ("linode_dns", "linode"),
        ("ovh_dns", "ovh"),
        ("sedo_dns", "sedo"),
        ("prodns_anycast", "prodns"),
        ("prodns_ru", "prodns_ru"),
        ("infobiz_dns", "infobizdns"),
        ("longtail1_dns", "longtail1"),
        ("longtail2_dns", "longtail2"),
        ("longtail3_dns", "longtail3"),
        ("wedos_dns", "wedos"),
        ("zonee_dns", "zonee"),
        ("homepl_dns", "homepl"),
        ("germanhost_dns", "germanhost"),
    ]
    for plan_key, provider_key in single:
        table.add(DnsPlan(plan_key, hosts(provider_key)))
    dual = [
        # RU-CENTER standard NS plus the Netnod-hosted cloud pair: nic.ru
        # *names* throughout, but geographically partial until March 3.
        ("rucenter_cloud", "rucenter", "rucenter_cloud"),
        ("ru_plus_yandex", "regru", "yandexcloud"),
        ("ru_plus_dnspro", "regru", "prodns_ru"),
        ("ru_plus_org", "rucenter", "nsmasterorg"),
        ("ru_plus_begetcom", "regru", "beget"),
        ("ru_plus_cloudflare", "regru", "cloudflare"),
        ("ru_plus_route53", "rucenter", "amazon"),
        ("ru_plus_hetzner", "timeweb", "hetzner"),
        ("ru_plus_linode", "regru", "linode"),
    ]
    for plan_key, primary, secondary in dual:
        table.add(DnsPlan(plan_key, hosts(primary) + hosts(secondary)))
    return table


#: Initial DNS-plan weights (percent of the population, June 2017).
DNS_WEIGHTS: Dict[str, float] = {
    # NS names under .ru, hosts in Russia  (tld full, geo full)
    "regru_dns": 14.0, "rucenter_dns": 12.0, "timeweb_dns": 9.0,
    "ruhost1_dns": 4.0, "ruhost2_dns": 4.0, "ruhost3_dns": 4.0,
    "ruhost4_dns": 4.0, "ruhost5_dns": 4.0, "ruhost6_dns": 3.0,
    # nic.ru names, one host at Netnod (SE)  (tld full, geo part)
    "rucenter_cloud": 1.5,
    # Russian operators with non-Russian NS TLDs  (tld non, geo full)
    "beget_dns": 0.8, "yandex_dns": 1.3, "nsmaster_dns": 1.7,
    # Mixed-TLD Russian stacks  (tld part, geo full)
    "ru_plus_yandex": 3.2, "ru_plus_dnspro": 0.5, "ru_plus_org": 1.5,
    "ru_plus_begetcom": 0.0,
    # Russian primary + Western secondary  (tld part, geo part)
    "ru_plus_cloudflare": 5.3, "ru_plus_route53": 4.4,
    "ru_plus_hetzner": 4.2, "ru_plus_linode": 1.0,
    # Fully Western DNS  (tld non, geo non)
    "cloudflare_dns": 3.2, "route53_dns": 1.4, "godaddy_dns": 0.8,
    "hetzner_dns": 0.8, "linode_dns": 0.4, "ovh_dns": 1.1, "sedo_dns": 0.6,
    "prodns_anycast": 7.55, "infobiz_dns": 0.3,
    # The long-tail TLDs (<1% each in Figure 3).
    "longtail1_dns": 0.15, "longtail2_dns": 0.15, "longtail3_dns": 0.15,
    # Small European hosts (sanctioned-domain homes; ~0 in the population)
    "prodns_ru": 0.0, "wedos_dns": 0.0, "zonee_dns": 0.0,
    "homepl_dns": 0.0, "germanhost_dns": 0.0,
}


def _hosting_plans(catalog: ProviderCatalog) -> HostingPlanTable:
    table = HostingPlanTable()

    def add(plan_key: str, provider_key: str, asn: Optional[int] = None) -> None:
        provider = catalog.get(provider_key)
        table.add(
            HostingPlan(
                plan_key,
                [(provider_key, asn if asn is not None else provider.primary_asn)],
            )
        )

    for provider_key in (
        "regru", "rucenter", "timeweb", "beget", "selectel", "yandexcloud",
        "sprinthost", "masterhost", "mchost", "firstvds", "rtcomm", "ihcru",
        "ruhost1", "ruhost2", "ruhost3", "ruhost4", "ruhost5", "ruhost6",
        "cloudflare", "sedo", "amazon", "hetzner", "linode", "godaddy",
        "ovh", "digitalocean", "contabo", "wedos", "zonee", "homepl",
        "serverel", "germanhost",
    ):
        add(f"{provider_key}_h", provider_key)
    add("google_h", "google", 15169)
    add("google2_h", "google", 396982)
    # Parked inventory bouncing between Amazon and Sedo (Figure 4).
    add("park_a_h", "amazon")
    add("park_s_h", "sedo")
    # The rare dual-homed apex (RU + DE A records): the paper's 0.19%.
    table.add(
        HostingPlan(
            "dual_ru_de",
            [("ruhost1", catalog.get("ruhost1").primary_asn),
             ("germanhost", catalog.get("germanhost").primary_asn)],
        )
    )
    return table


#: Initial hosting-plan weights (percent of the population, June 2017).
HOSTING_WEIGHTS: Dict[str, float] = {
    # The paper's stable Russian block (REG.RU + RU-CENTER + Timeweb +
    # Beget together: 38% of Russian domains).
    "regru_h": 12.5, "rucenter_h": 10.0, "timeweb_h": 8.5, "beget_h": 7.0,
    "selectel_h": 6.0, "yandexcloud_h": 4.0, "sprinthost_h": 3.0,
    "masterhost_h": 3.0, "mchost_h": 2.0, "firstvds_h": 2.0,
    "rtcomm_h": 1.5, "ihcru_h": 1.5,
    "ruhost1_h": 2.0, "ruhost2_h": 2.0, "ruhost3_h": 2.0, "ruhost4_h": 2.0,
    "ruhost5_h": 1.0, "ruhost6_h": 1.0,
    # Partially Russian hosting (the paper's 0.19%).
    "dual_ru_de": 0.19,
    # Western hosting (28.81% in total).
    "cloudflare_h": 6.3, "sedo_h": 3.3, "amazon_h": 0.26, "park_a_h": 0.34,
    "park_s_h": 0.0, "google_h": 0.35, "google2_h": 0.0, "hetzner_h": 3.5,
    "linode_h": 1.5, "godaddy_h": 3.0, "ovh_h": 2.5, "digitalocean_h": 1.96,
    "contabo_h": 1.0, "wedos_h": 0.5, "zonee_h": 0.3, "homepl_h": 0.5,
    "serverel_h": 0.1, "germanhost_h": 3.4,
}

#: Hosting-weight adjustments for domains *registered* after March 8, 2022
#: (existing Western-cloud customers registering fresh .ru names — the
#: paper's "574 newly registered domains" appearing inside Amazon).
BIRTH_SHIFT = {
    "amazon_h": +0.21, "google_h": +0.066, "cloudflare_h": +0.70,
    "serverel_h": +0.30, "ruhost1_h": -0.50, "ruhost2_h": -0.40,
    "ruhost3_h": -0.376,
}


def _weight_vector(table, weights: Dict[str, float]) -> np.ndarray:
    vector = np.zeros(len(table), dtype=float)
    for key, value in weights.items():
        vector[table.id_of(key)] = value
    missing = {plan.key for plan in table.plans()} - set(weights)
    if missing:
        raise ScenarioError(f"weights missing for plans: {sorted(missing)}")
    if abs(vector.sum() - 100.0) > 0.2:
        raise ScenarioError(f"weights sum to {vector.sum():.2f}, expected 100")
    return vector / vector.sum()


# ----------------------------------------------------------------------
# Sanctioned domains
# ----------------------------------------------------------------------

_SANCTION_WAVES: Tuple[Tuple[_dt.date, int], ...] = (
    (_dt.date(2022, 2, 24), 60),
    (_dt.date(2022, 3, 11), 20),
    (_dt.date(2022, 3, 24), 15),
    (_dt.date(2022, 4, 6), 12),
)


def _sanctioned_names(count: int) -> List[Tuple[str, str]]:
    return [(f"sanctioned-entity-{index:03d}", TLD_RU) for index in range(count)]


def _build_sanctions_list(
    names: Sequence[Tuple[str, str]],
    waves: Sequence[Tuple[_dt.date, int]] = _SANCTION_WAVES,
) -> SanctionsList:
    """Group the reserved ``(label, tld)`` names into sanctioned entities.

    The population puts its reserved names at indices ``0..count-1``, so
    ``DomainName(names[i])`` is the name of record ``i``.
    """
    count = len(names)
    entities: List[SanctionedEntity] = []
    index = 0
    entity_id = 0
    authorities_cycle = (
        (SanctionsAuthority.US_OFAC_SDN,),
        (SanctionsAuthority.UK_SANCTIONS_LIST,),
        (SanctionsAuthority.US_OFAC_SDN, SanctionsAuthority.UK_SANCTIONS_LIST),
    )
    for wave_date, wave_size in waves:
        remaining = min(wave_size, count - index)
        while remaining > 0:
            group = min(remaining, 1 + entity_id % 3)
            domains = [
                DomainName(names[index + position]) for position in range(group)
            ]
            designations = [
                Designation(authority, wave_date)
                for authority in authorities_cycle[entity_id % 3]
            ]
            entities.append(
                SanctionedEntity(
                    f"Sanctioned Entity {entity_id:03d}", domains, designations
                )
            )
            index += group
            remaining -= group
            entity_id += 1
        if index >= count:
            break
    return SanctionsList(entities)


def _assign_sanctioned(
    base_host: np.ndarray,
    base_dns: np.ndarray,
    hosting: HostingPlanTable,
    dns: DnsPlanTable,
    events: DomainEventLog,
    count: int,
    scripted: bool = True,
) -> None:
    """Fix the sanctioned domains' assignments and scripted moves.

    ``scripted=False`` (counterfactuals without the conflict) keeps the
    pre-conflict assignments but skips every 2022 repatriation event.
    """
    ru_host_cycle = ["regru_h", "rucenter_h", "timeweb_h", "selectel_h", "rtcomm_h"]
    for index in range(count):
        base_host[index] = hosting.id_of(ru_host_cycle[index % len(ru_host_cycle)])

    # Six domains hosted abroad pre-conflict (paper Section 3.3).
    foreign = [
        (36, "wedos_h"), (37, "zonee_h"), (38, "germanhost_h"),   # stay
        (39, "germanhost_h"), (40, "germanhost_h"), (41, "homepl_h"),  # move
    ]
    for index, plan_key in foreign:
        base_host[index] = hosting.id_of(plan_key)
    if scripted:
        events.add(_dt.date(2022, 3, 15), 39, Field.HOSTING, hosting.id_of("rucenter_h"))
        events.add(_dt.date(2022, 4, 20), 40, Field.HOSTING, hosting.id_of("rucenter_h"))
        events.add(_dt.date(2022, 5, 18), 41, Field.HOSTING, hosting.id_of("rucenter_h"))

    # Name service: 31 on the Netnod-backed cloud, 5 with a Hetzner
    # secondary, 6 fully Western, 65 fully Russian (34.0% / 5.2% on Feb 24).
    for index in range(0, 31):
        base_dns[index] = dns.id_of("rucenter_cloud")
    for index in range(31, 36):
        base_dns[index] = dns.id_of("ru_plus_hetzner")
    for index, plan_key in [
        (36, "cloudflare_dns"), (37, "cloudflare_dns"), (38, "cloudflare_dns"),
        (39, "godaddy_dns"), (40, "godaddy_dns"), (41, "hetzner_dns"),
    ]:
        base_dns[index] = dns.id_of(plan_key)
    full_cycle = ["rucenter_dns"] * 30 + ["regru_dns"] * 15 + ["timeweb_dns"] * 10 + [
        "ruhost1_dns"
    ] * 10
    for offset, index in enumerate(range(42, count)):
        base_dns[index] = dns.id_of(full_cycle[offset % len(full_cycle)])

    if not scripted:
        return
    # March 4: four of the five Hetzner secondaries are dropped, completing
    # the jump to 93.8% fully-Russian name service.
    for index in range(31, 35):
        events.add(_dt.date(2022, 3, 4), index, Field.DNS, dns.id_of("rucenter_dns"))
    # Two of the Western-DNS stragglers repatriate in April.
    events.add(_dt.date(2022, 4, 15), 36, Field.DNS, dns.id_of("rucenter_dns"))
    events.add(_dt.date(2022, 4, 28), 37, Field.DNS, dns.id_of("rucenter_dns"))


# ----------------------------------------------------------------------
# Flows: drifts and conflict events
# ----------------------------------------------------------------------

_RU_FULL_DNS = [
    "regru_dns", "rucenter_dns", "timeweb_dns",
    "ruhost1_dns", "ruhost2_dns", "ruhost3_dns",
    "ruhost4_dns", "ruhost5_dns", "ruhost6_dns",
]


def _dns_weights_at(frac: float) -> Dict[str, float]:
    """DNS cohort mix after a fraction of the pre-conflict drift.

    Newly registered domains join the market *as it is*, not as it was in
    2017 — without this, churn would dilute the Figure 2/3 drifts.  The
    deltas mirror the drift flows exactly: -6.3pp out of all-.ru NS
    stacks, +5.3pp ru+beget(.com), +1.0pp ru+org, and the ru+yandex(.net)
    to ru+pro shift.
    """
    weights = dict(DNS_WEIGHTS)
    total_sources = sum(DNS_WEIGHTS[key] for key in _RU_FULL_DNS)
    for key in _RU_FULL_DNS:
        weights[key] -= DNS_WEIGHTS[key] * 6.3 * frac / total_sources
    weights["ru_plus_begetcom"] += 5.3 * frac
    weights["ru_plus_org"] += 1.0 * frac
    weights["ru_plus_yandex"] -= 2.7 * frac
    weights["ru_plus_dnspro"] += 2.7 * frac
    return weights


def _dns_flows() -> List[Flow]:
    day0 = _dt.date(2017, 6, 18)
    return [
        # Pre-conflict drift: growing external NS-TLD dependency (Fig. 2/3).
        # Most of the drift rides on the birth mix (_dns_weights_at);
        # these flows move the long-lived stock along the same trajectory.
        Flow(Field.DNS, _RU_FULL_DNS, "ru_plus_begetcom", 3.9, day0, CONFLICT_START),
        Flow(Field.DNS, _RU_FULL_DNS, "ru_plus_org", 0.75, day0, CONFLICT_START),
        Flow(Field.DNS, ["ru_plus_yandex"], "ru_plus_dnspro", 2.0, day0, CONFLICT_START),
        # Conflict-period DNS migrations (Section 3.2).
        Flow(Field.DNS, ["ru_plus_hetzner"], "ru_plus_begetcom", 3.0,
             _dt.date(2022, 3, 25), _dt.date(2022, 4, 6)),
        Flow(Field.DNS, ["ru_plus_linode"], "ru_plus_begetcom", 1.0,
             _dt.date(2022, 3, 25), _dt.date(2022, 4, 11)),
        Flow(Field.DNS, ["prodns_anycast"], "prodns_ru", 1.2,
             _dt.date(2022, 2, 25), _dt.date(2022, 3, 27)),
        Flow(Field.DNS, ["cloudflare_dns"], "ru_plus_cloudflare", 0.5,
             _dt.date(2022, 2, 25), _dt.date(2022, 3, 21)),
        Flow(Field.DNS, ["sedo_dns"], "regru_dns", 0.2,
             SEDO_ANNOUNCEMENT, _dt.date(2022, 3, 21)),
    ]


def _hosting_flows(config: ConflictScenarioConfig) -> Tuple[List[Flow], List[Pulse]]:
    flows = [
        # Hetzner and Linode exits (end of March).
        Flow(Field.HOSTING, ["hetzner_h"], "timeweb_h", 0.75,
             _dt.date(2022, 3, 25), _dt.date(2022, 4, 16)),
        Flow(Field.HOSTING, ["hetzner_h"], "ruhost1_h", 0.75,
             _dt.date(2022, 3, 25), _dt.date(2022, 4, 16)),
        Flow(Field.HOSTING, ["linode_h"], "ruhost2_h", 0.5,
             _dt.date(2022, 3, 25), _dt.date(2022, 4, 11)),
        # Pre-sanctions flight from US providers to Russia and the NL.
        Flow(Field.HOSTING, ["godaddy_h"], "ruhost3_h", 0.5,
             _dt.date(2022, 2, 25), _dt.date(2022, 3, 27)),
        Flow(Field.HOSTING, ["digitalocean_h"], "serverel_h", 0.3,
             _dt.date(2022, 2, 25), _dt.date(2022, 3, 27)),
        # Cloudflare: business as usual, slight net inflow.
        Flow(Field.HOSTING, ["germanhost_h"], "cloudflare_h", 0.4,
             _dt.date(2022, 2, 25), STUDY_END),
        Flow(Field.HOSTING, ["hetzner_h"], "cloudflare_h", 0.28,
             _dt.date(2022, 2, 25), STUDY_END),
        Flow(Field.HOSTING, ["cloudflare_h"], "ruhost4_h", 0.38,
             _dt.date(2022, 2, 25), STUDY_END),
    ]
    pulses = [
        # Parked inventory: Sedo -> Amazon -> Sedo -> Serverel (Fig. 4/6/7).
        Pulse(Field.HOSTING, ["sedo_h"], "park_a_h", _dt.date(2022, 3, 12),
              fraction=0.8),
        Pulse(Field.HOSTING, ["park_a_h"], "park_s_h", _dt.date(2022, 3, 26),
              fraction=1.0),
        Pulse(Field.HOSTING, ["park_s_h"], "serverel_h", _dt.date(2022, 4, 12),
              fraction=0.7),
        Pulse(Field.HOSTING, ["park_s_h"], "serverel_h", _dt.date(2022, 4, 28),
              fraction=0.9),
        Pulse(Field.HOSTING, ["park_s_h"], "serverel_h", _dt.date(2022, 5, 12),
              fraction=0.9),
        Pulse(Field.HOSTING, ["sedo_h"], "serverel_h", _dt.date(2022, 5, 12),
              fraction=0.9),
        # Google: intra-provider migration to AS396982 around March 16
        # (57.1% relocate; 75.2% of those stay inside Google).
        Pulse(Field.HOSTING, ["google_h"], "google2_h", GOOGLE_INTRA_MIGRATION,
              fraction=0.428),
        Pulse(Field.HOSTING, ["google_h"], "timeweb_h", GOOGLE_INTRA_MIGRATION,
              fraction=0.248),
        # Existing-domain inflows the paper confirms with whois:
        # 988 relocated into Amazon, 187 into Google.
        Pulse(Field.HOSTING, ["linode_h"], "amazon_h", _dt.date(2022, 4, 1),
              count=config.scaled(988)),
        Pulse(Field.HOSTING, ["digitalocean_h"], "google_h", _dt.date(2022, 4, 1),
              count=config.scaled(187)),
    ]
    return flows, pulses


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------

def _ca_specs() -> List[CaSpec]:
    return [
        CaSpec("letsencrypt", "Let's Encrypt", "US", share=91.58, validity_days=90,
               brands=("R3", "E1"), revocation_rate=0.0006),
        CaSpec("digicert", "DigiCert", "US", share=3.40, validity_days=365,
               brands=("DigiCert TLS RSA SHA256 2020 CA1", "RapidSSL TLS 2020",
                       "GeoTrust TLS DV RSA 2020"),
               stop_date=_dt.date(2022, 2, 25), leak_days=45, leak_rate=0.08,
               revocation_rate=0.008),
        CaSpec("cpanel", "cPanel", "US", share=2.13, validity_days=90,
               brands=("cPanel, Inc. Certification Authority",),
               stop_date=_dt.date(2022, 3, 26),
               share_multiplier_post_conflict=0.30, revocation_rate=0.001),
        CaSpec("sectigo", "Sectigo", "GB", share=1.00, validity_days=365,
               brands=("Sectigo RSA DV", "Sectigo ECC DV"),
               stop_date=_dt.date(2022, 3, 15), leak_days=30, leak_rate=0.05,
               share_multiplier_post_conflict=0.15, revocation_rate=0.0515),
        CaSpec("globalsign", "GlobalSign", "JP", share=0.60, validity_days=365,
               brands=("GlobalSign GCC R3 DV",),
               share_multiplier_post_conflict=1.30, revocation_rate=0.0168),
        CaSpec("zerossl", "ZeroSSL", "AT", share=0.35, validity_days=90,
               brands=("ZeroSSL RSA Domain Secure Site CA",),
               stop_date=_dt.date(2022, 2, 28), leak_days=20, leak_rate=0.05,
               revocation_rate=0.003),
        CaSpec("gogetssl", "GoGetSSL", "LV", share=0.30, validity_days=365,
               brands=("GoGetSSL RSA DV CA",),
               stop_date=_dt.date(2022, 2, 26), revocation_rate=0.002),
        CaSpec("amazonca", "Amazon", "US", share=0.25, validity_days=395,
               brands=("Amazon RSA 2048 M01",),
               stop_date=AMAZON_ANNOUNCEMENT, revocation_rate=0.001),
        CaSpec("cloudflareca", "Cloudflare", "US", share=0.20, validity_days=90,
               brands=("Cloudflare Inc ECC CA-3",),
               stop_date=_dt.date(2022, 3, 26), leak_days=25, leak_rate=0.04,
               revocation_rate=0.001),
        CaSpec("googlets", "Google Trust Services", "US", share=0.15,
               validity_days=90, brands=("GTS CA 1P5",),
               share_multiplier_post_conflict=1.80, revocation_rate=0.0005),
        CaSpec("geocerts", "GeoCerts", "US", share=0.04, validity_days=365,
               brands=("GeoCerts DV CA",), stop_date=CONFLICT_START),
    ]


def _sanctioned_specs(config: ConflictScenarioConfig) -> List[SanctionedIssuanceSpec]:
    def scaled(value: int) -> int:
        return max(1, int(round(value * config.sanctioned_cert_scale)))

    return [
        SanctionedIssuanceSpec("letsencrypt", scaled(16_000), scaled(196),
                               (_dt.date(2022, 2, 25), _dt.date(2022, 5, 10))),
        SanctionedIssuanceSpec("digicert", scaled(308), scaled(308),
                               (_dt.date(2022, 2, 25), _dt.date(2022, 3, 20)),
                               issue_until=_dt.date(2022, 2, 25)),
        SanctionedIssuanceSpec("globalsign", scaled(905), scaled(23),
                               (_dt.date(2022, 3, 1), _dt.date(2022, 4, 15))),
        SanctionedIssuanceSpec("sectigo", scaled(164), scaled(164),
                               (_dt.date(2022, 3, 15), _dt.date(2022, 4, 5)),
                               issue_until=_dt.date(2022, 3, 15)),
        SanctionedIssuanceSpec("zerossl", scaled(82), scaled(2),
                               (_dt.date(2022, 3, 1), _dt.date(2022, 4, 1)),
                               issue_until=_dt.date(2022, 2, 28)),
    ]


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def build_world(config: Optional[ConflictScenarioConfig] = None) -> World:
    """Build the conflict world (registry + assignments + events).

    When ``config.variant`` is set, the counterfactual deltas are applied
    by reshaping the scripted inputs (flow/pulse lists, sanction waves,
    scripted events) *before* anything random runs — the baseline path
    (``variant=None``) executes exactly the pre-scenario-engine sequence
    of RNG draws, which is what keeps baseline archives byte-identical.
    """
    config = config or ConflictScenarioConfig()
    variant = getattr(config, "variant", None)
    conflict_happens = variant is None or variant.conflict
    catalog = standard_catalog()
    address_plan = AddressPlan(catalog)
    dns_table = _dns_plans(catalog)
    hosting_table = _hosting_plans(catalog)

    sanctioned_names = _sanctioned_names(config.sanctioned_domain_count)
    population = DomainPopulation(
        PopulationConfig(
            seed=config.seed,
            initial_count=config.initial_count,
            reserved_names=sanctioned_names,
        )
    )
    n = len(population)
    rng = derive_rng(config.seed, "scenario", "assignment")

    host_weights = _weight_vector(hosting_table, HOSTING_WEIGHTS)
    base_host = rng.choice(len(hosting_table), size=n, p=host_weights).astype(np.int32)

    # DNS mix drifts with registration date (see _dns_weights_at).
    conflict_day = (CONFLICT_START - STUDY_START).days
    fractions = np.clip(population.created / conflict_day, 0.0, 1.0)
    buckets = np.round(fractions * 20).astype(int)  # 5% drift resolution
    base_dns = np.zeros(n, dtype=np.int32)
    for bucket in np.unique(buckets):
        members = np.flatnonzero(buckets == bucket)
        bucket_weights = _weight_vector(
            dns_table, _dns_weights_at(bucket / 20.0)
        )
        base_dns[members] = rng.choice(
            len(dns_table), size=len(members), p=bucket_weights
        ).astype(np.int32)

    # Post-March-8 registrations lean slightly toward the Western clouds
    # whose existing customers kept registering .ru names.
    shifted = dict(HOSTING_WEIGHTS)
    for key, delta in BIRTH_SHIFT.items():
        shifted[key] = shifted[key] + delta
    shifted_weights = _weight_vector(hosting_table, shifted)
    late_birth = population.created >= (AMAZON_ANNOUNCEMENT - _dt.date(2017, 6, 18)).days
    late_indices = np.flatnonzero(late_birth)
    if conflict_happens and len(late_indices):
        base_host[late_indices] = rng.choice(
            len(hosting_table), size=len(late_indices), p=shifted_weights
        ).astype(np.int32)

    # Scripted flows (sanctioned domains are excluded from random draws).
    engine = FlowEngine(
        population,
        {
            Field.DNS: {p.key: i for i, p in enumerate(dns_table.plans())},
            Field.HOSTING: {p.key: i for i, p in enumerate(hosting_table.plans())},
        },
        derive_rng(config.seed, "scenario", "flows"),
    )
    sanct_count = config.sanctioned_domain_count
    protected = np.zeros(n, dtype=bool)
    protected[:sanct_count] = True
    dns_flows = _dns_flows()
    hosting_flows, hosting_pulses = _hosting_flows(config)
    flows = dns_flows + hosting_flows
    pulses = hosting_pulses
    if variant is not None:
        flows, pulses = variant.apply(flows, pulses)
    events, _final = engine.run(
        base={Field.HOSTING: base_host, Field.DNS: base_dns},
        flows=flows,
        pulses=pulses,
        horizon_days=STUDY_DAYS,
        exclude=protected,
    )

    _assign_sanctioned(base_host, base_dns, hosting_table, dns_table, events,
                       sanct_count, scripted=conflict_happens)
    if variant is not None and variant.sanction_waves is not None:
        waves = variant.sanction_waves
    elif conflict_happens:
        waves = _SANCTION_WAVES
    else:
        waves = ()
    sanctions = _build_sanctions_list(sanctioned_names, waves)

    # Netnod / RU-CENTER, March 3 2022.
    if not conflict_happens:
        netnod_event = None
    elif config.netnod_mode == "renumber":
        netnod_event = InfraEvent(
            NETNOD_CUTOFF,
            "Netnod drops RU-CENTER cloud NS; hosts renumbered into AS48287",
            ns_moves=[("ns4-cloud.nic.ru", "rucenter"),
                      ("ns8-cloud.nic.ru", "rucenter")],
        )
    else:
        prefix = address_plan.prefix_of_asn(
            catalog.get("netnodcloud").primary_asn
        )
        netnod_event = InfraEvent(
            NETNOD_CUTOFF,
            "Netnod segment prefix transferred to AS48287 (geo lags)",
            route_changes=[(str(prefix), catalog.get("rucenter").primary_asn)],
            geo_changes=[(str(prefix), "RU")],
        )

    world = World(
        population=population,
        catalog=catalog,
        address_plan=address_plan,
        dns_plans=dns_table,
        hosting_plans=hosting_table,
        base_hosting=base_host,
        base_dns=base_dns,
        events=events,
        infra_events=[netnod_event] if netnod_event is not None else [],
        sanctions=sanctions,
        # The waves list the reserved names in index order, so the listed
        # domains are the first ``len(all_domains())`` records.
        sanctioned_indices=np.arange(len(sanctions.all_domains())),
        geo_lag_days=config.geo_lag_days,
    )
    world.manifest = _build_manifest(config, sanctions, variant)
    return world


def _build_manifest(
    config: ConflictScenarioConfig,
    sanctions: SanctionsList,
    variant: Optional[ScenarioVariant] = None,
) -> ScenarioManifest:
    """The scripted timeline, for narration (never read by the analysis)."""
    manifest = ScenarioManifest()
    if variant is not None and not variant.conflict:
        manifest.record(
            CONFLICT_START, "counterfactual",
            f"scenario {config.scenario_id!r}: the invasion never happens; "
            "pre-2022 drifts continue undisturbed",
        )
        for date, actor, description in variant.notes:
            manifest.record(date, actor, description)
        return manifest
    manifest.record(CONFLICT_START, "conflict", "Russia invades Ukraine")
    for wave_date in sanctions.listing_dates():
        listed = len(sanctions.domains_listed_as_of(wave_date))
        manifest.record(
            wave_date, "sanctions",
            f"designation wave brings the listed-domain total to {listed}",
        )
    manifest.record(
        _dt.date(2022, 2, 25), "DigiCert",
        "stops issuing for .ru/.рф (brand-CN leakage for ~45 days)",
    )
    manifest.record(
        NETNOD_CUTOFF, "Netnod",
        f"stops serving RU-CENTER's cloud NS ({config.netnod_mode} mode)",
    )
    manifest.record(
        _dt.date(2022, 3, 1), "Russia",
        "Ministry of Digital Development stands up the Russian Trusted Root CA",
    )
    manifest.record(
        _dt.date(2022, 3, 7), "Cloudflare",
        "complies with sanctions but keeps serving Russia ('business as usual')",
    )
    manifest.record(
        AMAZON_ANNOUNCEMENT, "Amazon",
        "stops accepting new Russian/Belarusian AWS registrations",
    )
    manifest.record(
        SEDO_ANNOUNCEMENT, "Sedo",
        "'pulls the plug' on Russian domains; parked inventory starts moving",
    )
    manifest.record(
        GOOGLE_ANNOUNCEMENT, "Google",
        "stops accepting new cloud customers in Russia",
    )
    manifest.record(
        _dt.date(2022, 3, 15), "Sectigo", "stops issuing for .ru/.рф"
    )
    manifest.record(
        GOOGLE_INTRA_MIGRATION, "Google",
        "intra-provider migration moves customers from AS15169 to AS396982",
    )
    manifest.record(
        _dt.date(2022, 3, 25), "Hetzner/Linode",
        "DNS and hosting migrations out of both networks begin",
    )
    manifest.record(
        _dt.date(2022, 3, 26), "sanctions",
        "paper's post-sanctions phase begins; cPanel and Cloudflare CA stop issuing",
    )
    manifest.record(
        _dt.date(2022, 4, 12), "Sedo/Amazon",
        "parked inventory ultimately relocates to Serverel (NL)",
    )
    manifest.record(
        _dt.date(2022, 4, 22), "OFAC",
        "General License 25 issued (no observable issuance change)",
    )
    if variant is not None:
        if variant.intensity != 1.0:
            manifest.record(
                CONFLICT_START, "counterfactual",
                f"scenario {config.scenario_id!r}: conflict-era migration "
                f"volumes scaled x{variant.intensity:g}",
            )
        for date, actor, description in variant.notes:
            manifest.record(date, actor, description)
    return manifest


def _peacetime_ca_specs() -> List[CaSpec]:
    """The CA mix with every conflict response stripped (no-invasion worlds)."""
    specs = _ca_specs()
    for spec in specs:
        spec.stop_date = None
        spec.leak_days = 0
        spec.leak_rate = 0.0
        spec.share_multiplier_post_conflict = 1.0
    return specs


def build_pki(world: World, config: ConflictScenarioConfig) -> PkiBundle:
    """Run the certificate simulation and attach it to the world."""
    variant = getattr(config, "variant", None)
    if variant is not None and not variant.conflict:
        # Peacetime: no CA pull-outs, no issuance drop, no sanctioned
        # reissuance rush, and the Russian state CA is never stood up.
        cert_config = CertSimConfig(
            seed=config.seed,
            scale_factor=config.scale_factor,
            ca_specs=_peacetime_ca_specs(),
            sanctioned_specs=[],
            daily_volume_post_conflict=130_000.0,
            russian_ca_cert_count=0,
            russian_ca_sanctioned_count=0,
            russian_ca_rf_count=0,
            russian_ca_external_count=0,
        )
    else:
        cert_config = CertSimConfig(
            seed=config.seed,
            scale_factor=config.scale_factor,
            ca_specs=_ca_specs(),
            sanctioned_specs=_sanctioned_specs(config),
        )
    bundle = simulate_pki(world, cert_config)
    world.pki = bundle
    return bundle


def build_scenario(config: Optional[ConflictScenarioConfig] = None) -> World:
    """Build the full scenario: world plus (optionally) the PKI bundle."""
    config = config or ConflictScenarioConfig()
    world = build_world(config)
    if config.with_pki:
        build_pki(world, config)
    return world
