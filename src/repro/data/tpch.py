"""A scaled-down TPC-H-like ORDERS generator with Zipf skew.

The paper's TPC-H joins (B_ICD and BE_OCD, Appendix B) touch only a handful
of ORDERS columns: ``orderkey``, ``custkey``, ``ship_priority``,
``order_priority`` and ``totalprice``.  This generator reproduces those
columns with the skew structure of the Chaudhuri--Narasayya skewed TPC-H
generator: attribute values receive Zipf(z)-distributed multiplicities.

The paper runs scale factor 160 (160 GB, hundreds of millions of tuples);
this reproduction is laptop-scale, so :class:`TPCHConfig` exposes the number
of orders directly; each benchmark's table in ``benchmarks/results/`` states
the scale it ran at (see README.md's "Tests and benchmarks" section).
TPC-H proper has 1.5M orders per scale factor; the helper
:meth:`TPCHConfig.for_scale_factor` keeps that ratio at a reduced base so
relative sizes between scale factors match the paper's scalability setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.zipf import zipf_keys
from repro.joins.relations import Relation

__all__ = ["TPCHConfig", "generate_orders", "ORDER_PRIORITIES"]

#: TPC-H order priority categories (column O_ORDERPRIORITY).
ORDER_PRIORITIES = (
    "1-URGENT",
    "2-HIGH",
    "3-MEDIUM",
    "4-NOT SPECIFIED",
    "5-LOW",
)


@dataclass(frozen=True)
class TPCHConfig:
    """Configuration of the ORDERS generator.

    Parameters
    ----------
    num_orders:
        Number of tuples to generate.
    zipf_z:
        Skew parameter applied to ``custkey`` and ``ship_priority``
        multiplicities (the paper uses 0.25).
    customers_per_order:
        Ratio of orders to distinct customers; TPC-H has 10 orders per
        customer on average, which we keep.
    ship_priority_levels:
        Number of distinct ship priorities.  TPC-H proper fixes the column
        to 0; the paper's BE_OCD band of width 2 over it only makes sense
        with a populated domain, so we default to 8 levels.
    price_min, price_max:
        Range of ``totalprice`` values (TPC-H orders span roughly
        900 .. 600000).
    seed:
        Seed of the deterministic random generator.
    """

    num_orders: int
    zipf_z: float = 0.25
    customers_per_order: float = 0.1
    ship_priority_levels: int = 8
    price_min: float = 900.0
    price_max: float = 600000.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_orders <= 0:
            raise ValueError("num_orders must be positive")
        if not 0 < self.customers_per_order <= 1:
            raise ValueError("customers_per_order must be in (0, 1]")
        if self.ship_priority_levels <= 0:
            raise ValueError("ship_priority_levels must be positive")
        if self.price_max <= self.price_min:
            raise ValueError("price_max must exceed price_min")

    @property
    def num_customers(self) -> int:
        """Number of distinct customers implied by the configuration."""
        return max(1, int(round(self.num_orders * self.customers_per_order)))

    @classmethod
    def for_scale_factor(
        cls, scale_factor: float, orders_per_sf: int = 15_000, **kwargs
    ) -> "TPCHConfig":
        """Build a configuration proportional to a TPC-H scale factor.

        The paper uses scale factors 80/160/320; ``orders_per_sf`` rescales
        the 1.5M-orders-per-SF ratio of real TPC-H down to laptop scale
        while preserving proportions between scale factors.
        """
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        return cls(num_orders=int(scale_factor * orders_per_sf), **kwargs)


def generate_orders(config: TPCHConfig) -> Relation:
    """Generate the ORDERS relation described by ``config``.

    Columns: ``orderkey`` (unique, shuffled), ``custkey`` (Zipf-skewed),
    ``ship_priority`` (Zipf-skewed small domain), ``order_priority``
    (categorical index into :data:`ORDER_PRIORITIES`), ``totalprice``
    (uniform float).  The join key column defaults to ``orderkey``.
    """
    rng = np.random.default_rng(config.seed)
    n = config.num_orders

    orderkey = rng.permutation(np.arange(1, n + 1, dtype=np.int64))
    custkey = zipf_keys(
        num_tuples=n,
        num_values=config.num_customers,
        z=config.zipf_z,
        rng=rng,
    )
    ship_priority = zipf_keys(
        num_tuples=n,
        num_values=config.ship_priority_levels,
        z=config.zipf_z,
        rng=rng,
        domain_min=0,
    )
    order_priority = rng.integers(0, len(ORDER_PRIORITIES), size=n, dtype=np.int64)
    totalprice = rng.uniform(config.price_min, config.price_max, size=n)

    return Relation(
        name="orders",
        columns={
            "orderkey": orderkey,
            "custkey": custkey,
            "ship_priority": ship_priority,
            "order_priority": order_priority,
            "totalprice": totalprice,
        },
        key_column="orderkey",
    )
