"""A synthetic IP geolocation database (the IPinfo analog).

The paper's leak analysis only needs coarse WHOIS facts — country, city,
ISP, and the bogon class — so the database maps the first octet of a
public IPv4 address to a country and derives city/ISP deterministically
from the full address. Countries are allocated enough distinct octets to
host the paper's observed diversity (56 countries, 259 cities for the
RT News audience).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addresses import IpClass, classify_ip, classify_ip_int, ip_to_int
from repro.util.errors import ConfigurationError
from repro.util.rand import DeterministicRandom

# Countries in rough order of PDN-audience relevance. Each gets one or
# more first octets of public IPv4 space. Octets avoid every bogon range
# modeled in repro.net.addresses.
_COUNTRY_OCTETS: dict[str, list[int]] = {
    "CN": [36, 58, 59, 60, 61, 101, 106, 110, 111, 112, 113, 114,
           115, 116, 117, 118, 119, 120, 121, 122, 123],
    "US": [13, 23, 34, 35, 44, 50, 52, 54, 63, 64, 65, 66, 67, 68],
    "GB": [25, 51, 81, 86],
    "CA": [24, 47, 70, 99],
    "RU": [5, 31, 37, 46],
    "DE": [18, 53, 84],
    "FR": [62, 78, 90],
    "ES": [77, 83],
    "IT": [79, 87],
    "BR": [131, 138, 143],
    "MX": [132, 148],
    "AR": [133, 152],
    "PT": [85, 89],
    "NL": [82, 94],
    "SE": [91, 155],
    "NO": [92, 158],
    "FI": [95, 135],
    "DK": [2, 80],
    "PL": [93, 178],
    "UA": [176, 193],
    "TR": [88, 159],
    "IN": [1, 14, 27, 49],
    "JP": [43, 126],
    "KR": [211, 175],
    "ID": [39, 103],
    "TH": [171, 180],
    "VN": [213, 203],
    "MY": [201, 202],
    "PH": [124, 219],
    "SG": [8, 129],
    "AU": [3, 141],
    "NZ": [125, 163],
    "ZA": [41, 105],
    "NG": [102, 154],
    "EG": [156, 197],
    "KE": [165, 196],
    "SA": [188, 212],
    "AE": [185, 217],
    "IL": [147, 199],
    "IR": [187, 151],
    "PK": [182, 221],
    "BD": [209, 45],
    "LK": [222, 218],
    "NP": [223, 210],
    "CL": [146, 186],
    "CO": [181, 190],
    "PE": [179, 200],
    "VE": [150, 191],
    "EC": [157, 184],
    "BO": [166, 215],
    "UY": [164, 167],
    "PY": [169, 214],
    "CR": [189, 216],
    "PA": [168, 170],
    "GT": [173, 174],
    "DO": [207, 162],
    "JM": [72, 74],
    "BE": [57, 109],
    "CH": [145, 160],
    "AT": [128, 130],
    "CZ": [136, 161],
    "HU": [134, 137],
    "RO": [139, 140],
    "BG": [149, 153],
    "GR": [144, 195],
    "IE": [142, 198],
}

_CITIES_PER_COUNTRY = 10
_ISPS_PER_COUNTRY = 6


@dataclass(frozen=True)
class GeoInfo:
    """WHOIS-style facts about one address."""

    ip: str
    ip_class: IpClass
    country: str
    city: str
    isp: str

    @property
    def is_public(self) -> bool:
        """True when the address is publicly routable (not a bogon)."""
        return self.ip_class is IpClass.PUBLIC


class GeoDatabase:
    """First-octet country allocation with derived city/ISP."""

    def __init__(self) -> None:
        self._octet_to_country: dict[int, str] = {}
        for country, octets in _COUNTRY_OCTETS.items():
            for octet in octets:
                if not 1 <= octet <= 223:
                    continue
                if classify_ip(f"{octet}.1.1.1") is not IpClass.PUBLIC:
                    continue  # never allocate bogon space to a country
                # first writer wins; duplicates in the table are dropped
                self._octet_to_country.setdefault(octet, country)
        self._country_octets: dict[str, list[int]] = {}
        for octet, country in self._octet_to_country.items():
            self._country_octets.setdefault(country, []).append(octet)

    # -- lookup ---------------------------------------------------------

    def lookup(self, ip: str) -> GeoInfo:
        """Geolocate ``ip``; bogons get empty country, city and ISP.

        A public address whose first octet no country owns reports
        country ``"XX"``.
        """
        value = ip_to_int(ip)
        ip_class = classify_ip_int(value)
        if ip_class is not IpClass.PUBLIC:
            return GeoInfo(ip, ip_class, country="", city="", isp="")
        octet = (value >> 24) & 0xFF
        country = self._octet_to_country.get(octet, "XX")
        city = f"{country}-city-{(value >> 12) % _CITIES_PER_COUNTRY}"
        isp = f"{country}-isp-{(value >> 18) % _ISPS_PER_COUNTRY}"
        return GeoInfo(ip, ip_class, country, city, isp)

    def country_of(self, ip: str) -> str:
        """The country code :meth:`lookup` gives ``ip`` (empty for bogons)."""
        return self.lookup(ip).country

    def resolver(self):
        """A ``(ip) -> (country, isp)`` callable for the signaling server."""

        def resolve(ip: str) -> tuple[str, str]:
            """Map a joining peer's address to its (country, ISP)."""
            info = self.lookup(ip)
            return info.country, info.isp

        return resolve

    # -- generation -------------------------------------------------------

    def countries(self) -> list[str]:
        """Every country that owns address space, sorted by code."""
        return sorted(self._country_octets)

    def random_ip(self, rand: DeterministicRandom, country: str) -> str:
        """A public address geolocating to ``country``."""
        octets = self._country_octets.get(country)
        if not octets:
            raise ConfigurationError(f"no address space allocated for country {country!r}")
        first = rand.choice(octets)
        return f"{first}.{rand.randint(1, 254)}.{rand.randint(0, 254)}.{rand.randint(1, 254)}"

    def random_bogon(self, rand: DeterministicRandom, kind: IpClass) -> str:
        """An address in one of the bogon classes (NAT-traversal artifacts)."""
        if kind is IpClass.PRIVATE:
            prefix = rand.choice(["10.%d.%d" % (rand.randint(0, 255), rand.randint(0, 255)),
                                  "192.168.%d" % rand.randint(0, 255),
                                  "172.%d.%d" % (rand.randint(16, 31), rand.randint(0, 255))])
            return f"{prefix}.{rand.randint(1, 254)}"
        if kind is IpClass.SHARED_NAT:
            return f"100.{rand.randint(64, 127)}.{rand.randint(0, 254)}.{rand.randint(1, 254)}"
        if kind is IpClass.RESERVED:
            return rand.choice(
                [
                    f"240.{rand.randint(0, 254)}.{rand.randint(0, 254)}.{rand.randint(1, 254)}",
                    f"127.0.0.{rand.randint(1, 254)}",
                    f"169.254.{rand.randint(0, 254)}.{rand.randint(1, 254)}",
                ]
            )
        raise ConfigurationError(f"{kind} is not a bogon class")
