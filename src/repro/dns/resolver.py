"""An iterative (recursive-resolver style) DNS resolver.

This is the measurement pipeline's "honest" path: it starts from root
hints, follows referrals with glue, resolves glueless name servers
out-of-band, chases CNAME chains, and caches both positive and negative
answers on the simulation's day clock — the same walk OpenINTEL's
measurement infrastructure performs for every domain every day.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import ResolutionError, ServfailError
from ..timeline import DayClock
from .cache import ResolverCache
from .message import Message, Question, Rcode
from .name import DomainName, ROOT
from .network import NetworkUnreachable, SimulatedNetwork
from .rdata import A, CNAME, NS, RRType
from .rrset import RRset

__all__ = ["ResolutionResult", "IterativeResolver"]

_MAX_REFERRALS = 32
_MAX_DEPTH = 8


class ResolutionResult:
    """Outcome of one resolution."""

    __slots__ = ("qname", "qtype", "rcode", "rrset", "cname_chain")

    def __init__(
        self,
        qname: DomainName,
        qtype: RRType,
        rcode: Rcode,
        rrset: Optional[RRset] = None,
        cname_chain: Optional[List[DomainName]] = None,
    ) -> None:
        self.qname = qname
        self.qtype = qtype
        self.rcode = rcode
        self.rrset = rrset
        self.cname_chain = list(cname_chain or [])

    @property
    def ok(self) -> bool:
        """True when a non-empty answer of the requested type was found."""
        return self.rcode is Rcode.NOERROR and self.rrset is not None

    def addresses(self) -> List[int]:
        """Integer addresses when the answer is an A RRset (else empty)."""
        if self.rrset is None or self.rrset.rtype is not RRType.A:
            return []
        return [rdata.address for rdata in self.rrset if isinstance(rdata, A)]

    def ns_targets(self) -> List[DomainName]:
        """NS target names when the answer is an NS RRset (else empty)."""
        if self.rrset is None or self.rrset.rtype is not RRType.NS:
            return []
        return [rdata.target for rdata in self.rrset if isinstance(rdata, NS)]

    def __repr__(self) -> str:
        return f"ResolutionResult({self.qname} {self.qtype} {self.rcode})"


class IterativeResolver:
    """Walks the simulated DNS hierarchy from the root hints down."""

    def __init__(
        self,
        network: SimulatedNetwork,
        root_addresses: Sequence[int],
        clock: Optional[DayClock] = None,
        cache: Optional[ResolverCache] = None,
    ) -> None:
        if not root_addresses:
            raise ResolutionError("resolver needs at least one root address")
        self._network = network
        self._roots = list(root_addresses)
        self._clock = clock or DayClock()
        self._cache = cache or ResolverCache(self._clock)

    @property
    def cache(self) -> ResolverCache:
        """The resolver's shared cache."""
        return self._cache

    @property
    def clock(self) -> DayClock:
        """The clock TTLs are evaluated against."""
        return self._clock

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def resolve(self, qname: DomainName, qtype: RRType) -> ResolutionResult:
        """Resolve ``qname``/``qtype``, following CNAMEs."""
        return self._resolve(qname, qtype, depth=0)

    # ------------------------------------------------------------------
    # Core walk
    # ------------------------------------------------------------------

    def _resolve(
        self, qname: DomainName, qtype: RRType, depth: int
    ) -> ResolutionResult:
        if depth > _MAX_DEPTH:
            raise ServfailError(f"resolution depth exceeded at {qname} {qtype}")

        cached = self._cache.get(qname, qtype)
        if cached is not None:
            if cached.is_negative:
                return ResolutionResult(qname, qtype, cached.rcode)
            return ResolutionResult(qname, qtype, Rcode.NOERROR, cached.rrset)

        servers = self._closest_cached_servers(qname)
        cname_chain: List[DomainName] = []
        current_name = qname

        for _ in range(_MAX_REFERRALS):
            response = self._query_any(servers, Question(current_name, qtype))

            if response.rcode is Rcode.NXDOMAIN:
                self._cache.put_negative(current_name, qtype, Rcode.NXDOMAIN)
                return ResolutionResult(qname, qtype, Rcode.NXDOMAIN, None, cname_chain)
            if response.rcode is not Rcode.NOERROR:
                raise ServfailError(
                    f"{response.rcode} from upstream for {current_name} {qtype}"
                )

            answer = self._extract_answer(response, current_name, qtype)
            if answer is not None:
                self._cache.put_positive(answer)
                return ResolutionResult(
                    qname, qtype, Rcode.NOERROR, answer, cname_chain
                )

            alias = self._extract_cname(response, current_name)
            if alias is not None and qtype is not RRType.CNAME:
                self._cache.put_positive(alias)
                target = alias.rdatas[0]
                assert isinstance(target, CNAME)
                cname_chain.append(target.target)
                if len(cname_chain) > _MAX_DEPTH:
                    raise ServfailError(f"CNAME chain too long from {qname}")
                if target.target in (qname, *cname_chain[:-1]):
                    raise ServfailError(f"CNAME loop at {qname}")
                tail = self._resolve(target.target, qtype, depth + 1)
                return ResolutionResult(
                    qname, qtype, tail.rcode, tail.rrset, cname_chain + tail.cname_chain
                )

            if response.is_referral:
                servers = self._follow_referral(response, depth)
                continue

            # NODATA: the name exists but has no records of this type.
            self._cache.put_negative(current_name, qtype, Rcode.NOERROR)
            return ResolutionResult(qname, qtype, Rcode.NOERROR, None, cname_chain)

        raise ServfailError(f"referral limit exceeded resolving {qname} {qtype}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _query_any(self, servers: Sequence[int], question: Question) -> Message:
        """Ask each candidate server until one answers usefully."""
        last_error: Optional[Exception] = None
        for address in servers:
            try:
                response = self._network.query(address, question)
            except NetworkUnreachable as exc:
                last_error = exc
                continue
            if response.rcode is Rcode.REFUSED:
                last_error = ServfailError(
                    f"REFUSED for {question!r} from server at {address}"
                )
                continue
            return response
        raise ServfailError(
            f"no server answered {question!r}"
        ) from last_error

    @staticmethod
    def _extract_answer(
        response: Message, qname: DomainName, qtype: RRType
    ) -> Optional[RRset]:
        for rrset in response.answers:
            if rrset.name == qname and rrset.rtype is qtype:
                return rrset
        return None

    @staticmethod
    def _extract_cname(response: Message, qname: DomainName) -> Optional[RRset]:
        for rrset in response.answers:
            if rrset.name == qname and rrset.rtype is RRType.CNAME:
                return rrset
        return None

    def _follow_referral(self, response: Message, depth: int) -> List[int]:
        """Turn a referral into the next hop's server address list."""
        ns_rrset = next(
            rrset for rrset in response.authorities if rrset.rtype is RRType.NS
        )
        self._cache.put_positive(ns_rrset)

        glue: dict = {}
        for rrset in response.additionals:
            if rrset.rtype is RRType.A:
                self._cache.put_positive(rrset)
                glue[rrset.name] = [
                    rdata.address for rdata in rrset if isinstance(rdata, A)
                ]

        addresses: List[int] = []
        glueless: List[DomainName] = []
        for rdata in ns_rrset:
            assert isinstance(rdata, NS)
            if rdata.target in glue:
                addresses.extend(glue[rdata.target])
            else:
                glueless.append(rdata.target)

        # Resolve glueless NS names out-of-band, but never chase a target
        # *inside* the zone being delegated without glue (unresolvable).
        for target in glueless:
            if addresses:
                break  # one reachable address per hop is enough for the walk
            if target.is_subdomain_of(ns_rrset.name):
                continue
            try:
                result = self._resolve(target, RRType.A, depth + 1)
            except ResolutionError:
                continue
            addresses.extend(result.addresses())

        if not addresses:
            raise ServfailError(
                f"referral to {ns_rrset.name} has no resolvable name servers"
            )
        return addresses

    def _closest_cached_servers(self, qname: DomainName) -> List[int]:
        """Start the walk at the deepest cached zone cut covering ``qname``."""
        for ancestor in qname.ancestors():
            if ancestor == ROOT:
                break
            entry = self._cache.get(ancestor, RRType.NS)
            if entry is None or entry.is_negative or entry.rrset is None:
                continue
            addresses: List[int] = []
            for rdata in entry.rrset:
                assert isinstance(rdata, NS)
                glue_entry = self._cache.get(rdata.target, RRType.A)
                if glue_entry is not None and glue_entry.rrset is not None:
                    addresses.extend(
                        rd.address for rd in glue_entry.rrset if isinstance(rd, A)
                    )
            if addresses:
                return addresses
        return list(self._roots)
