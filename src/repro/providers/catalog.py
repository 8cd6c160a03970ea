"""The standard provider catalog for the conflict scenario.

Names, countries, and AS numbers follow the providers the paper reports on
(Amazon AS16509, Sedo AS47846, Cloudflare AS13335, Google AS15169 and
AS396982, Netnod, Hetzner, Linode, Serverel, and the big four Russian
hosters REG.RU / RU-CENTER / Timeweb / Beget).  The rest of the market is
filled with generic providers so population-level compositions match the
paper's baselines.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..errors import ScenarioError
from ..net.asn import ASInfo, ASRegistry
from .provider import Provider, Role

__all__ = ["ProviderCatalog", "standard_catalog"]

_H = Role.HOSTING
_D = Role.DNS
_P = Role.PARKING


class ProviderCatalog:
    """An indexed collection of providers."""

    def __init__(self, providers: List[Provider]) -> None:
        self._by_key: Dict[str, Provider] = {}
        for provider in providers:
            if provider.key in self._by_key:
                raise ScenarioError(f"duplicate provider key {provider.key}")
            self._by_key[provider.key] = provider

    def __iter__(self) -> Iterator[Provider]:
        return iter(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def get(self, key: str) -> Provider:
        """Provider by key; raises for unknown keys."""
        provider = self._by_key.get(key)
        if provider is None:
            raise ScenarioError(f"unknown provider: {key}")
        return provider

    def try_get(self, key: str) -> Optional[Provider]:
        """Provider by key or None."""
        return self._by_key.get(key)

    def as_registry(self) -> ASRegistry:
        """Build the AS metadata registry for every catalogued ASN.

        When two providers share an ASN (RU-CENTER and its cloud DNS
        service), the first-listed provider names it.
        """
        registry = ASRegistry()
        for provider in self._by_key.values():
            for asn in provider.asns:
                if asn not in registry:
                    registry.register(
                        ASInfo(asn, provider.display, provider.country, provider.key)
                    )
        return registry


def standard_catalog() -> ProviderCatalog:
    """The provider market used by the conflict scenario."""
    providers = [
        # --- Major Russian hosters (paper Figure 4's stable block) -------
        Provider("regru", "REG.RU", "RU", [197695], _H | _D,
                 ["ns1.reg.ru", "ns2.reg.ru"]),
        Provider("rucenter", "RU-CENTER", "RU", [48287], _H | _D,
                 ["ns3-l2.nic.ru", "ns4-l2.nic.ru"]),
        Provider("timeweb", "Timeweb", "RU", [9123], _H | _D,
                 ["ns1.timeweb.ru", "ns2.timeweb.ru"]),
        Provider("beget", "Beget", "RU", [198610], _H | _D,
                 ["ns1.beget.com", "ns2.beget.com"]),
        # RU-CENTER's outsourced cloud name service: nic.ru *names*, but
        # the hosts sat in Netnod's Swedish network until March 3, 2022.
        # The dedicated "netnodcloud" block lets the scenario model either
        # a renumbering or a whole-prefix transfer of that service.
        Provider("rucenter_cloud", "RU-CENTER Cloud DNS", "RU", [48287], _D,
                 ["ns4-cloud.nic.ru", "ns8-cloud.nic.ru"], ns_infra="netnodcloud"),
        # --- Other Russian providers -------------------------------------
        Provider("selectel", "Selectel", "RU", [49505], _H | _D,
                 ["ns1.selectel.ru", "ns2.selectel.ru"]),
        Provider("yandexcloud", "Yandex Cloud", "RU", [13238], _H | _D,
                 ["dns1.yandex.net", "dns2.yandex.net"]),
        Provider("sprinthost", "Sprinthost", "RU", [35278], _H | _D,
                 ["ns1.sprinthost.ru", "ns2.sprinthost.ru"]),
        Provider("masterhost", "Masterhost", "RU", [25532], _H | _D,
                 ["ns1.masterhost.ru", "ns2.masterhost.ru"]),
        Provider("mchost", "McHost", "RU", [208677], _H | _D,
                 ["ns1.mchost.ru", "ns2.mchost.ru"]),
        Provider("firstvds", "FirstVDS", "RU", [29182], _H | _D,
                 ["ns1.firstvds.ru", "ns2.firstvds.ru"]),
        Provider("rtcomm", "RTComm", "RU", [8342], _H | _D,
                 ["ns1.rtcomm.ru", "ns2.rtcomm.ru"]),
        Provider("ihcru", "IHC.ru", "RU", [56694], _H | _D,
                 ["ns1.ihc.ru", "ns2.ihc.ru"]),
        # Russian DNS operators with non-Russian name-server TLDs.
        Provider("prodns_ru", "PRO DNS (RU POPs)", "RU", [211001], _D,
                 ["ns5.hosting.pro", "ns6.hosting.pro"]),
        Provider("nsmasterorg", "NS-Master", "RU", [211002], _D,
                 ["a.ns-master.org", "b.ns-master.org"]),
        # --- Western hyperscalers and hosters -----------------------------
        Provider("cloudflare", "Cloudflare", "US", [13335], _H | _D,
                 ["alice.ns.cloudflare.com", "bob.ns.cloudflare.com"]),
        Provider("amazon", "Amazon", "US", [16509], _H | _D,
                 ["ns-101.awsdns-01.com", "ns-202.awsdns-02.net",
                  "ns-303.awsdns-03.org", "ns-404.awsdns-04.co.uk"]),
        Provider("google", "Google", "US", [15169, 396982], _H | _D,
                 ["ns-cloud-a1.googledomains.com", "ns-cloud-a2.googledomains.com"]),
        Provider("sedo", "Sedo", "DE", [47846], _H | _D | _P,
                 ["ns1.sedoparking.com", "ns2.sedoparking.com"]),
        Provider("serverel", "Serverel", "NL", [50867], _H),
        Provider("hetzner", "Hetzner", "DE", [24940], _H | _D,
                 ["helium.ns.hetzner.de", "hydrogen.ns.hetzner.de"]),
        Provider("linode", "Linode", "US", [63949], _H | _D,
                 ["ns1.linode.com", "ns2.linode.com"]),
        Provider("godaddy", "GoDaddy", "US", [26496], _H | _D,
                 ["ns01.domaincontrol.com", "ns02.domaincontrol.com"]),
        Provider("ovh", "OVH", "FR", [16276], _H | _D,
                 ["dns100.ovh.net", "ns100.ovh.net"]),
        Provider("digitalocean", "DigitalOcean", "US", [14061], _H | _D,
                 ["ns1.digitalocean.com", "ns2.digitalocean.com"]),
        Provider("contabo", "Contabo", "DE", [51167], _H),
        Provider("netnod", "Netnod", "SE", [8674], _D,
                 ["x.anycast.netnod.se", "y.anycast.netnod.se"]),
        # The Netnod network segment that carried RU-CENTER's cloud NS.
        Provider("netnodcloud", "Netnod (RU-CENTER segment)", "SE", [8675],
                 Role.DNS, ["z.anycast.netnod.se"]),
        # Anycast .pro DNS farm (name TLD .pro, geolocates to US POPs).
        Provider("prodns", "PRO DNS (anycast)", "US", [211000], _D,
                 ["ns1.hosting.pro", "ns2.hosting.pro"]),
        Provider("infobizdns", "InfoBiz DNS", "US", [211003], _D,
                 ["ns1.dnsfarm.info", "ns2.dnsfarm.biz"]),
        # The long tail: small DNS operators whose NS names sit under the
        # ~265 other TLDs the paper observes at <1% each (Figure 3).
        Provider("longtail1", "EuroDNS Farm", "FR", [211010], _D,
                 ["a.nsf.fr", "b.nsf.nl", "c.nsf.eu", "d.nsf.ch", "e.nsf.it"]),
        Provider("longtail2", "Nordic DNS", "FI", [211011], _D,
                 ["a.nsp.se", "b.nsp.fi", "c.nsp.dk", "d.nsp.no", "e.nsp.ee"]),
        Provider("longtail3", "EurAsia DNS", "TR", [211012], _D,
                 ["a.nsq.tr", "b.nsq.kz", "c.nsq.pl", "d.nsq.cz", "e.nsq.me"]),
        # --- Small European hosters (sanctioned-domain homes) -------------
        Provider("wedos", "WEDOS", "CZ", [197019], _H | _D,
                 ["ns.wedos.cz", "ns.wedos.eu"]),
        Provider("zonee", "Zone.ee", "EE", [203300], _H | _D,
                 ["ns1.zone.ee", "ns2.zone.ee"]),
        Provider("homepl", "home.pl", "PL", [12824], _H | _D,
                 ["dns1.home.pl", "dns2.home.pl"]),
        Provider("germanhost", "GermanHost", "DE", [202100], _H | _D,
                 ["ns1.germanhost.de", "ns2.germanhost.de"]),
        # --- Generic fill providers ---------------------------------------
        Provider("ruhost1", "RU-Host One", "RU", [210001], _H | _D,
                 ["ns1.ruhost1.ru", "ns2.ruhost1.ru"]),
        Provider("ruhost2", "RU-Host Two", "RU", [210002], _H | _D,
                 ["ns1.ruhost2.ru", "ns2.ruhost2.ru"]),
        Provider("ruhost3", "RU-Host Three", "RU", [210003], _H | _D,
                 ["ns1.ruhost3.ru", "ns2.ruhost3.ru"]),
        Provider("ruhost4", "RU-Host Four", "RU", [210004], _H | _D,
                 ["ns1.ruhost4.ru", "ns2.ruhost4.ru"]),
        Provider("ruhost5", "RU-Host Five", "RU", [210005], _H | _D,
                 ["ns1.ruhost5.ru", "ns2.ruhost5.ru"]),
        Provider("ruhost6", "RU-Host Six", "RU", [210006], _H | _D,
                 ["ns1.ruhost6.ru", "ns2.ruhost6.ru"]),
    ]
    return ProviderCatalog(providers)
