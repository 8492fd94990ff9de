//! Manifest-driven machine configuration: parse a small TOML or JSON
//! document declaring the core, SRAM size, and device placements, and
//! build a [`Machine`] with exactly those devices on its bus.
//!
//! The build environment is offline, so both formats are hand-rolled
//! subsets (the same policy as the in-tree `rand`/`proptest` compat
//! crates): enough TOML for `[machine]` + repeated `[[device]]` tables
//! of scalar keys, and enough JSON for the equivalent object shape.
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
        if text.trim_start().starts_with('{') {
            MachineSpec::parse_json(text)
        } else {
            MachineSpec::parse_toml(text)
        }
    }

    /// Builds the machine: core config, SRAM sizing (heap in the upper
    /// half, as [`MachineConfig::new`] lays it out), and a bus populated
    /// with exactly the declared devices.
    ///
    /// # Errors
    ///
    /// Unknown device kinds, bus conflicts (misaligned bases, overlapping
    /// windows, out-of-range IRQ lines), and everything
    /// [`MachineSpec::parse`] rejects (an unusable SRAM size, say), so a
    /// spec built in code never reaches a panicking `Machine::new`.
    pub fn build(&self) -> Result<Machine, ManifestError> {
        self.validate()?;
        let core = match self.core {
            CoreKind::Ibex => CoreModel::ibex(),
            CoreKind::Flute => CoreModel::flute(),
        };
        let mut cfg = MachineConfig::new(core);
        if let Some(sram) = self.sram_size {
            cfg.sram_size = sram;
            cfg.heap_offset = sram / 2;
            cfg.heap_size = sram / 2;
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
        #[derive(PartialEq)]
        enum Section {
            Top,
            Machine,
            Device,
        }
        let mut spec = MachineSpec {
            core: CoreKind::Ibex,
            sram_size: None,
            intc_base: None,
            devices: Vec::new(),
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
                        spec.devices.push(DeviceSpec {
                            kind: String::new(),
                            base: 0,
                            irq: None,
                        });
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
            match section {
                Section::Top => {
                    return Err(ManifestError::at(
                        n,
                        format!("key `{key}` outside a [machine] or [[device]] section"),
                    ))
                }
                Section::Machine => match key {
                    "core" => {
                        spec.core = parse_core(&parse_toml_string(value, n)?)
                            .map_err(|e| ManifestError::at(n, e))?;
                    }
                    "sram" => {
                        spec.sram_size =
                            Some(parse_int(value).map_err(|e| ManifestError::at(n, e))?)
                    }
                    "intc" => {
                        spec.intc_base =
                            Some(parse_int(value).map_err(|e| ManifestError::at(n, e))?)
                    }
                    other => {
                        return Err(ManifestError::at(
                            n,
                            format!("unknown machine key `{other}`"),
                        ))
                    }
                },
                Section::Device => {
                    let dev = spec.devices.last_mut().expect("section implies a device");
                    match key {
                        "kind" => dev.kind = parse_toml_string(value, n)?,
                        "base" => {
                            dev.base = parse_int(value).map_err(|e| ManifestError::at(n, e))?
                        }
                        "irq" => {
                            dev.irq = Some(parse_int(value).map_err(|e| ManifestError::at(n, e))?)
                        }
                        other => {
                            return Err(ManifestError::at(
                                n,
                                format!("unknown device key `{other}`"),
                            ))
                        }
                    }
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    // --- JSON ---------------------------------------------------------------

    fn parse_json(text: &str) -> Result<MachineSpec, ManifestError> {
        let value = json::parse(text).map_err(ManifestError::new)?;
        let obj = value.as_object("manifest")?;
        let mut spec = MachineSpec {
            core: CoreKind::Ibex,
            sram_size: None,
            intc_base: None,
            devices: Vec::new(),
        };
        for (key, v) in obj {
            match key.as_str() {
                "machine" => {
                    for (mk, mv) in v.as_object("machine")? {
                        match mk.as_str() {
                            "core" => {
                                spec.core = parse_core(mv.as_str("machine.core")?)
                                    .map_err(ManifestError::new)?
                            }
                            "sram" => spec.sram_size = Some(mv.as_u32("machine.sram")?),
                            "intc" => spec.intc_base = Some(mv.as_u32("machine.intc")?),
                            other => {
                                return Err(ManifestError::new(format!(
                                    "unknown machine key `{other}`"
                                )))
                            }
                        }
                    }
                }
                "devices" => {
                    for dv in v.as_array("devices")? {
                        let mut dev = DeviceSpec {
                            kind: String::new(),
                            base: 0,
                            irq: None,
                        };
                        for (dk, dvv) in dv.as_object("device")? {
                            match dk.as_str() {
                                "kind" => dev.kind = dvv.as_str("device.kind")?.to_string(),
                                "base" => dev.base = dvv.as_u32("device.base")?,
                                "irq" => dev.irq = Some(dvv.as_u32("device.irq")?),
                                other => {
                                    return Err(ManifestError::new(format!(
                                        "unknown device key `{other}`"
                                    )))
                                }
                            }
                        }
                        spec.devices.push(dev);
                    }
                }
                other => return Err(ManifestError::new(format!("unknown key `{other}`"))),
            }
        }
        spec.validate()?;
        Ok(spec)
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

fn parse_core(s: &str) -> Result<CoreKind, String> {
    match s {
        "ibex" => Ok(CoreKind::Ibex),
        "flute" => Ok(CoreKind::Flute),
        other => Err(format!("unknown core `{other}` (expected ibex or flute)")),
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

fn parse_toml_string(value: &str, line: usize) -> Result<String, ManifestError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| ManifestError::at(line, format!("expected a quoted string, got `{value}`")))
}

/// A minimal JSON reader: objects, arrays, strings (no escapes beyond
/// `\"` and `\\`), unsigned integers, booleans, null. Exactly the shape
/// space manifests need.
mod json {
    use super::ManifestError;

    /// A parsed JSON value.
    pub enum Value {
        /// Object, in source order.
        Object(Vec<(String, Value)>),
        /// Array.
        Array(Vec<Value>),
        /// String.
        Str(String),
        /// Unsigned integer.
        Int(u64),
        /// true/false/null (unused by manifests, accepted for
        /// completeness).
        Other,
    }

    impl Value {
        pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], ManifestError> {
            match self {
                Value::Object(o) => Ok(o),
                _ => Err(ManifestError::new(format!("{what}: expected an object"))),
            }
        }

        pub fn as_array(&self, what: &str) -> Result<&[Value], ManifestError> {
            match self {
                Value::Array(a) => Ok(a),
                _ => Err(ManifestError::new(format!("{what}: expected an array"))),
            }
        }

        pub fn as_str(&self, what: &str) -> Result<&str, ManifestError> {
            match self {
                Value::Str(s) => Ok(s),
                _ => Err(ManifestError::new(format!("{what}: expected a string"))),
            }
        }

        /// An integer, from a number or a `"0x"`-string.
        pub fn as_u32(&self, what: &str) -> Result<u32, ManifestError> {
            match self {
                Value::Int(n) => u32::try_from(*n)
                    .map_err(|_| ManifestError::new(format!("{what}: {n} out of u32 range"))),
                Value::Str(s) => {
                    super::parse_int(s).map_err(|e| ManifestError::new(format!("{what}: {e}")))
                }
                _ => Err(ManifestError::new(format!("{what}: expected an integer"))),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = string(b, pos)?;
                    expect(b, pos, b':')?;
                    fields.push((key, value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(c) if c.is_ascii_digit() => {
                let start = *pos;
                while *pos < b.len() && b[*pos].is_ascii_digit() {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .expect("ascii digits")
                    .parse()
                    .map(Value::Int)
                    .map_err(|_| format!("bad number at byte {start}"))
            }
            _ => {
                for lit in ["true", "false", "null"] {
                    if b[*pos..].starts_with(lit.as_bytes()) {
                        *pos += lit.len();
                        return Ok(Value::Other);
                    }
                }
                Err(format!("unexpected input at byte {pos}"))
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => match b.get(*pos) {
                    Some(&e @ (b'"' | b'\\')) => {
                        out.push(e as char);
                        *pos += 1;
                    }
                    _ => return Err(format!("unsupported escape at byte {pos}")),
                },
                c => out.push(c as char),
            }
        }
        Err("unterminated string".to_string())
    }
}
