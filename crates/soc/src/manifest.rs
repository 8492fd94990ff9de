//! Manifest-driven machine configuration: parse a small TOML or JSON
//! document declaring the core, SRAM size, and device placements, and
//! build a [`Machine`] with exactly those devices on its bus.
//!
//! The build environment is offline, so TOML is a hand-rolled subset
//! (the same policy as the in-tree `rand`/`proptest` compat crates):
//! enough for `[machine]` + repeated `[[device]]` tables of scalar keys.
//! JSON manifests go through the workspace's one JSON codec,
//! [`cheriot_trace::json`], which reads full JSON (escapes, UTF-8, a
//! bounded nesting depth); this module walks the parsed value.
//!
//! # TOML manifest
//!
//! ```toml
//! [machine]
//! core = "ibex"          # "ibex" | "flute"
//! sram = 0x80000         # bytes (optional, default 512 KiB)
//! intc = 0x85000000      # interrupt-controller window (optional)
//!
//! [[device]]
//! kind = "uart"          # "uart" | "timer" | "dma" | "net"
//! base = 0x82000000      # 4 KiB-aligned MMIO window
//! irq  = 0               # interrupt line (optional)
//! ```
//!
//! # JSON manifest
//!
//! ```json
//! {"machine": {"core": "ibex"},
//!  "devices": [{"kind": "uart", "base": "0x82000000", "irq": 0}]}
//! ```
//!
//! (Integers may be JSON numbers or `"0x"`-prefixed strings — JSON has
//! no hex literals and MMIO bases are unreadable in decimal.)

use crate::devices::{DmaEngine, LiteTimer, NetLoopback};
use cheriot_core::bus::{DeviceBus, MmioDevice, Uart};
use cheriot_core::machine::{layout, Machine, MachineConfig};
use cheriot_core::pipeline::CoreModel;
use cheriot_core::CoreKind;
use cheriot_trace::json::Json;
use std::fmt;

/// A manifest error: what went wrong and (for parse errors) on which
/// line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestError {
    /// Human-readable description.
    pub msg: String,
    /// 1-based source line, when the error is tied to one.
    pub line: Option<usize>,
}

impl ManifestError {
    fn new(msg: impl Into<String>) -> ManifestError {
        ManifestError {
            msg: msg.into(),
            line: None,
        }
    }

    fn at(line: usize, msg: impl Into<String>) -> ManifestError {
        ManifestError {
            msg: msg.into(),
            line: Some(line),
        }
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "manifest line {n}: {}", self.msg),
            None => write!(f, "manifest: {}", self.msg),
        }
    }
}

impl std::error::Error for ManifestError {}

/// One declared device.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Device kind: `uart`, `timer`, `dma`, or `net`.
    pub kind: String,
    /// MMIO window base (4 KiB aligned).
    pub base: u32,
    /// Interrupt line, if the device is wired to one.
    pub irq: Option<u32>,
}

/// A parsed machine manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineSpec {
    /// Core model (Ibex or Flute class).
    pub core: CoreKind,
    /// SRAM size override in bytes (manifest `sram`).
    pub sram_size: Option<u32>,
    /// Interrupt-controller window base (`None` = the default
    /// [`layout::INTC_BASE`]).
    pub intc_base: Option<u32>,
    /// Devices to attach, in declaration order (bus ids follow it).
    pub devices: Vec<DeviceSpec>,
}

impl Default for MachineSpec {
    /// The default platform: an Ibex-class core with the UART on the
    /// legacy console window — the same machine [`Machine::new`] builds.
    fn default() -> MachineSpec {
        MachineSpec {
            core: CoreKind::Ibex,
            sram_size: None,
            intc_base: None,
            devices: vec![DeviceSpec {
                kind: "uart".to_string(),
                base: layout::CONSOLE_BASE,
                irq: Some(0),
            }],
        }
    }
}

impl MachineSpec {
    /// Parses a manifest, sniffing the format: a document whose first
    /// non-whitespace byte is `{` is JSON, anything else is TOML.
    ///
    /// # Errors
    ///
    /// Syntax errors (with line numbers for TOML), unknown keys or
    /// sections, non-scalar values, and an `sram` size that is not a
    /// non-zero multiple of 16 or would run into the MMIO windows.
    pub fn parse(text: &str) -> Result<MachineSpec, ManifestError> {
        let spec = if text.trim_start().starts_with('{') {
            MachineSpec::parse_json(text).map_err(ManifestError::new)?
        } else {
            MachineSpec::parse_toml(text)?
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Builds the machine on `base`: the manifest's core, and its SRAM
    /// size when it gives one (heap in the upper half, as
    /// [`MachineConfig::new`] lays it out), replace `base`'s; every other
    /// setting (load filter, dispatch tier, CoW) is `base`'s; and the bus
    /// is populated with exactly the declared devices.
    ///
    /// # Errors
    ///
    /// Unknown device kinds, bus conflicts (misaligned bases, overlapping
    /// windows, out-of-range IRQ lines), and everything
    /// [`MachineSpec::parse`] rejects (an unusable SRAM size, say), so a
    /// spec built in code never reaches a panicking `Machine::new`.
    pub fn build(&self, base: MachineConfig) -> Result<Machine, ManifestError> {
        self.validate()?;
        let mut cfg = MachineConfig {
            core: CoreModel::of(self.core),
            ..base
        };
        if let Some(sram) = self.sram_size {
            cfg.sram_size = sram;
            cfg.heap_offset = sram / 2;
        }
        let mut m = Machine::new(cfg);
        let mut bus = DeviceBus::default();
        bus.set_intc_base(Some(self.intc_base.unwrap_or(layout::INTC_BASE)))
            .map_err(ManifestError::new)?;
        for d in &self.devices {
            let dev: Box<dyn MmioDevice> = match d.kind.as_str() {
                "uart" => Box::new(Uart::new()),
                "timer" => Box::new(LiteTimer::new()),
                "dma" => Box::new(DmaEngine::new()),
                "net" => Box::new(NetLoopback::new()),
                other => {
                    return Err(ManifestError::new(format!(
                        "unknown device kind `{other}` (expected uart, timer, dma, or net)"
                    )))
                }
            };
            bus.attach(d.base, d.irq, dev).map_err(ManifestError::new)?;
        }
        m.bus = bus;
        Ok(m)
    }

    // --- TOML ---------------------------------------------------------------

    fn parse_toml(text: &str) -> Result<MachineSpec, ManifestError> {
        enum Section {
            Top,
            Machine,
            Device,
        }
        let mut spec = MachineSpec {
            devices: Vec::new(),
            ..MachineSpec::default()
        };
        let mut section = Section::Top;
        for (i, raw) in text.lines().enumerate() {
            let n = i + 1;
            let line = match raw.split_once('#') {
                // A '#' inside a quoted string would be a comment here;
                // the manifest vocabulary has no string values containing
                // '#', so the simple split is fine.
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                match name.trim() {
                    "device" => {
                        section = Section::Device;
                        spec.devices.push(DeviceSpec::default());
                    }
                    other => return Err(ManifestError::at(n, format!("unknown table `{other}`"))),
                }
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                match name.trim() {
                    "machine" => section = Section::Machine,
                    other => {
                        return Err(ManifestError::at(n, format!("unknown section `{other}`")))
                    }
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| ManifestError::at(n, format!("expected `key = value`: `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            let set = match section {
                Section::Top => Err(format!(
                    "key `{key}` outside a [machine] or [[device]] section"
                )),
                Section::Machine => toml_value(value).and_then(|v| spec.set_machine_key(key, &v)),
                Section::Device => {
                    let dev = spec.devices.last_mut().expect("section implies a device");
                    toml_value(value).and_then(|v| dev.set_key(key, &v))
                }
            };
            set.map_err(|e| ManifestError::at(n, e))?;
        }
        Ok(spec)
    }

    // --- JSON ---------------------------------------------------------------

    fn parse_json(text: &str) -> Result<MachineSpec, String> {
        let mut spec = MachineSpec {
            devices: Vec::new(),
            ..MachineSpec::default()
        };
        for (key, v) in object(&Json::parse(text)?, "manifest")? {
            match key.as_str() {
                "machine" => {
                    for (k, v) in object(v, "machine")? {
                        spec.set_machine_key(k, v)?;
                    }
                }
                "devices" => {
                    for d in v.as_array().ok_or("devices: expected an array")? {
                        let mut dev = DeviceSpec::default();
                        for (k, v) in object(d, "device")? {
                            dev.set_key(k, v)?;
                        }
                        spec.devices.push(dev);
                    }
                }
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        Ok(spec)
    }

    /// Sets one `[machine]` key, from either format.
    fn set_machine_key(&mut self, key: &str, v: &Json) -> Result<(), String> {
        match key {
            "core" => self.core = string(v, "machine.core")?.parse()?,
            "sram" => self.sram_size = Some(int(v, "machine.sram")?),
            "intc" => self.intc_base = Some(int(v, "machine.intc")?),
            other => return Err(format!("unknown machine key `{other}`")),
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), ManifestError> {
        if let Some(sram) = self.sram_size {
            // Whole 16-byte units keep both halves (code/data below, heap
            // above) granule-aligned, and the bank must end before the
            // first MMIO window.
            if sram == 0 || !sram.is_multiple_of(16) {
                return Err(ManifestError::new(format!(
                    "sram = {sram:#x}: must be a non-zero multiple of 16 bytes"
                )));
            }
            if sram > layout::REV_BITMAP_BASE - layout::SRAM_BASE {
                return Err(ManifestError::new(format!(
                    "sram = {sram:#x}: the bank would run past {:#010x}",
                    layout::REV_BITMAP_BASE
                )));
            }
        }
        for d in &self.devices {
            if d.kind.is_empty() {
                return Err(ManifestError::new("device missing `kind`"));
            }
            if d.base == 0 {
                return Err(ManifestError::new(format!(
                    "device `{}` missing `base`",
                    d.kind
                )));
            }
        }
        Ok(())
    }
}

/// Parses a decimal or `0x`-prefixed integer (with optional `_`
/// separators, as TOML allows).
fn parse_int(s: &str) -> Result<u32, String> {
    let clean = s.replace('_', "");
    let parsed = match clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        Some(hex) => u32::from_str_radix(hex, 16),
        None => clean.parse(),
    };
    parsed.map_err(|_| format!("expected an integer, got `{s}`"))
}

/// A TOML scalar as the JSON value it stands for: a quoted string or an
/// integer.
fn toml_value(value: &str) -> Result<Json, String> {
    match value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
        Some(s) => Ok(Json::Str(s.to_string())),
        None => parse_int(value)
            .map(|n| Json::UInt(n.into()))
            .map_err(|_| format!("expected a quoted string or an integer, got `{value}`")),
    }
}

impl DeviceSpec {
    /// Sets one device key, from either format.
    fn set_key(&mut self, key: &str, v: &Json) -> Result<(), String> {
        match key {
            "kind" => self.kind = string(v, "device.kind")?.to_string(),
            "base" => self.base = int(v, "device.base")?,
            "irq" => self.irq = Some(int(v, "device.irq")?),
            other => return Err(format!("unknown device key `{other}`")),
        }
        Ok(())
    }
}

/// The fields of a JSON object, or an error naming `what`.
fn object<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    v.as_object()
        .ok_or_else(|| format!("{what}: expected an object"))
}

/// A JSON string, or an error naming `what`.
fn string<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("{what}: expected a string"))
}

/// An integer, from a JSON number or a `"0x"`-string.
fn int(v: &Json, what: &str) -> Result<u32, String> {
    let n = match (v.as_u64(), v.as_str()) {
        (Some(n), _) => u32::try_from(n).map_err(|_| format!("{n} out of u32 range")),
        (None, Some(s)) => parse_int(s),
        (None, None) => Err("expected an integer".to_string()),
    };
    n.map_err(|e| format!("{what}: {e}"))
}
