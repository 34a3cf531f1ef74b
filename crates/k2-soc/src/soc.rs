//! Platform presets: the OMAP4-like SoC the paper evaluates on.

use crate::core::{CoreDesc, CoreKind};
use crate::ids::{CoreId, DomainId};
use crate::platform::{Machine, World};

/// Builder for a multi-domain SoC machine.
///
/// # Examples
///
/// ```
/// use k2_soc::soc::SocBuilder;
///
/// let machine = SocBuilder::omap4().build::<()>();
/// assert_eq!(machine.domain_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SocBuilder {
    cores: Vec<CoreDesc>,
    ram_bytes: u64,
}

impl SocBuilder {
    /// Starts an empty SoC with the given RAM size.
    ///
    /// # Panics
    ///
    /// Panics if `ram_bytes` is not a positive multiple of the page size.
    pub fn new(ram_bytes: u64) -> Self {
        SocBuilder {
            cores: Vec::new(),
            ram_bytes,
        }
    }

    /// The OMAP4 configuration used throughout the paper: two Cortex-A9
    /// cores at 350 MHz in the strong domain (its most energy-efficient
    /// operating point, §9.2), one Cortex-M3 at 200 MHz in the weak domain,
    /// and 1 GB of shared RAM.
    pub fn omap4() -> Self {
        SocBuilder::new(1 << 30)
            .with_core(DomainId::STRONG, CoreKind::CortexA9, 350_000_000)
            .with_core(DomainId::STRONG, CoreKind::CortexA9, 350_000_000)
            .with_core(DomainId::WEAK, CoreKind::CortexM3, 200_000_000)
    }

    /// A forward-looking three-domain SoC (the paper's 11: "one system may
    /// embrace more, but not many, types of heterogeneous domains"): the
    /// OMAP4 pair plus an even weaker always-on sensor domain (M3 at
    /// 100 MHz).
    pub fn three_domain() -> Self {
        SocBuilder::new(1 << 30)
            .with_core(DomainId::STRONG, CoreKind::CortexA9, 350_000_000)
            .with_core(DomainId::STRONG, CoreKind::CortexA9, 350_000_000)
            .with_core(DomainId::WEAK, CoreKind::CortexM3, 200_000_000)
            .with_core(DomainId(2), CoreKind::CortexM3, 100_000_000)
    }

    /// OMAP4 with the strong domain at its performance point (1.2 GHz),
    /// used by the Figure 1 sweep.
    pub fn omap4_performance() -> Self {
        let mut b = SocBuilder::new(1 << 30)
            .with_core(DomainId::STRONG, CoreKind::CortexA9, 1_200_000_000)
            .with_core(DomainId::STRONG, CoreKind::CortexA9, 1_200_000_000)
            .with_core(DomainId::WEAK, CoreKind::CortexM3, 200_000_000);
        for c in &mut b.cores[..2] {
            c.power = crate::power::CorePowerParams::cortex_a9_1200mhz();
        }
        b
    }

    /// Adds a core to `domain`. Core ids are assigned densely in call order.
    pub fn with_core(mut self, domain: DomainId, kind: CoreKind, freq_hz: u64) -> Self {
        let id = CoreId(self.cores.len() as u8);
        self.cores.push(CoreDesc::new(id, domain, kind, freq_hz));
        self
    }

    /// The configured cores.
    pub fn cores(&self) -> &[CoreDesc] {
        &self.cores
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if no cores were added.
    pub fn build<W: World>(self) -> Machine<W> {
        Machine::new(self.cores, self.ram_bytes)
    }
}

/// Prints the platform's Table 1 (core specifications) as aligned text.
pub fn table1_description(builder: &SocBuilder) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "{:<10} {:>10} {:>12} {:>8} {:>12}",
        "core", "domain", "ISA", "MHz", "MMU"
    )
    .unwrap();
    for c in builder.cores() {
        writeln!(
            s,
            "{:<10} {:>10} {:>12} {:>8} {:>12}",
            format!("{:?}", c.kind),
            c.domain.to_string(),
            format!("{:?}", c.isa()),
            c.freq_hz / 1_000_000,
            format!("{:?}", c.kind.mmu()),
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Isa;

    #[test]
    fn omap4_matches_table1() {
        let b = SocBuilder::omap4();
        let cores = b.cores();
        assert_eq!(cores.len(), 3);
        assert_eq!(cores[0].isa(), Isa::Arm);
        assert_eq!(cores[2].isa(), Isa::Thumb2);
        assert_eq!(cores[2].domain, DomainId::WEAK);
        let m = b.build::<()>();
        assert_eq!(m.domain_cores(DomainId::STRONG).len(), 2);
        assert_eq!(m.domain_cores(DomainId::WEAK).len(), 1);
    }

    #[test]
    fn performance_point_uses_1200mhz_power() {
        let b = SocBuilder::omap4_performance();
        assert_eq!(b.cores()[0].freq_hz, 1_200_000_000);
        assert_eq!(b.cores()[0].power.active_mw, 672.0);
    }

    #[test]
    fn table1_text_mentions_both_isas() {
        let t = table1_description(&SocBuilder::omap4());
        assert!(t.contains("Arm") && t.contains("Thumb2"), "{t}");
    }
}
