"""KER001/KER002: auditing the kernels the compiler emits."""

import pytest

from repro.analysis import audit_kernel_source, audit_registered_kernels
from repro.power.compile import iter_registered_kernel_sources


@pytest.fixture(scope="module")
def sample_kernel():
    """One real emitted kernel (kind, signature, source, guard names)."""
    for kind, sig, source, guards in iter_registered_kernel_sources():
        if source is not None and guards:
            return kind, sig, source, guards
    raise AssertionError("no emittable kernel in the registry")


def test_every_registered_kernel_audits_clean():
    findings = audit_registered_kernels()
    assert findings == []


def test_registry_emits_every_topology_and_signature():
    seen = list(iter_registered_kernel_sources())
    kinds = {kind for kind, _sig, _src, _g in seen}
    assert {"cots", "ic", "direct-ldo", "single-sc"} <= kinds
    assert all(source is not None for _k, _s, source, _g in seen)
    # three gate states per gate, at least one gate per topology
    assert len(seen) >= 3 * len(kinds)


def test_rebound_local_without_self_reference_fails(sample_kernel):
    kind, sig, source, guards = sample_kernel
    corrupted = None
    for line in source.splitlines():
        text = line.strip()
        if "=" in text and not text.startswith(("#", "if", "return")):
            name = text.split("=")[0].strip()
            rhs = text.split("=", 1)[1]
            if text.count("=") == 1 and name in rhs and name.startswith("_s"):
                # accumulator line `_sN = _sN + x` -> drop the self-read
                corrupted = source.replace(text,
                                           text.replace(name + " +", "_z +", 1))
                break
    assert corrupted is not None and corrupted != source
    findings = audit_kernel_source(kind, sig, corrupted, guards)
    assert any(f.rule_id == "KER001" and "rebound" in f.message
               for f in findings)


def test_wrong_signature_fails(sample_kernel):
    kind, sig, source, guards = sample_kernel
    corrupted = source.replace(
        "def _kernel(v, loads, masks, factors, guards, shape, _np=np):",
        "def _kernel(v, loads, factors, guards, shape, _np=np):")
    assert corrupted != source
    findings = audit_kernel_source(kind, sig, corrupted, guards)
    assert any(f.rule_id == "KER001" and "signature" in f.message
               for f in findings)


def test_unconsumed_mask_fails(sample_kernel):
    kind, sig, source, guards = sample_kernel
    # Append a mask that nothing reads.
    lines = source.rstrip().splitlines()
    lines.insert(2, "    _b999 = v < 0.0")
    corrupted = "\n".join(lines) + "\n"
    findings = audit_kernel_source(kind, sig, corrupted, guards)
    assert any(f.rule_id == "KER001" and "_b999" in f.message
               and "never" in f.message for f in findings)


def test_missing_bad_any_check_fails(sample_kernel):
    kind, sig, source, guards = sample_kernel
    assert "_bad.any()" in source
    corrupted = source.replace("_bad.any()", "_bad.all()")
    findings = audit_kernel_source(kind, sig, corrupted, guards)
    assert any(f.rule_id == "KER001" and "_bad" in f.message
               for f in findings)


def test_guard_index_gap_fails(sample_kernel):
    kind, sig, source, guards = sample_kernel
    corrupted = source.replace("guards[0]", "guards[7]", 1)
    assert corrupted != source
    findings = audit_kernel_source(kind, sig, corrupted, guards)
    assert any(f.rule_id == "KER001" and "contiguous" in f.message
               for f in findings)


def test_float32_narrowing_fails(sample_kernel):
    kind, sig, source, guards = sample_kernel
    corrupted = source.replace("return _i_src,",
                               "return _i_src.astype(_np.float32),")
    assert corrupted != source
    findings = audit_kernel_source(kind, sig, corrupted, guards)
    assert any(f.rule_id == "KER001" and "float64" in f.message
               for f in findings)


def test_unparseable_kernel_fails(sample_kernel):
    kind, sig, source, guards = sample_kernel
    findings = audit_kernel_source(kind, sig, source + "\n    def:", guards)
    assert any(f.rule_id == "KER001" and "parse" in f.message
               for f in findings)


def test_import_in_kernel_fails_hygiene(sample_kernel):
    kind, sig, source, guards = sample_kernel
    lines = source.rstrip().splitlines()
    lines.insert(2, "    import os")
    findings = audit_kernel_source(kind, sig, "\n".join(lines) + "\n",
                                   guards)
    assert any(f.rule_id == "KER002" and "import" in f.message
               for f in findings)


def test_wall_clock_in_kernel_fails_hygiene(sample_kernel):
    kind, sig, source, guards = sample_kernel
    lines = source.rstrip().splitlines()
    lines.insert(2, "    _t = time.time()")
    findings = audit_kernel_source(kind, sig, "\n".join(lines) + "\n",
                                   guards)
    assert any(f.rule_id == "KER002" and "wall clock" in f.message
               for f in findings)


def test_dynamic_code_in_kernel_fails_hygiene(sample_kernel):
    # The generator itself may exec (DET004 allow-list), but a kernel
    # that *emits* dynamic code is outside the sanction.
    kind, sig, source, guards = sample_kernel
    lines = source.rstrip().splitlines()
    lines.insert(2, "    eval('1+1')")
    findings = audit_kernel_source(kind, sig, "\n".join(lines) + "\n",
                                   guards)
    assert any(f.rule_id == "KER002" for f in findings)


def test_kernel_findings_have_stable_synthetic_paths(sample_kernel):
    kind, sig, source, guards = sample_kernel
    corrupted = source.replace("guards[0]", "guards[7]", 1)
    first = audit_kernel_source(kind, sig, corrupted, guards)
    second = audit_kernel_source(kind, sig, corrupted, guards)
    assert [f.fingerprint for f in first] == [f.fingerprint
                                             for f in second]
    assert all(f.path.startswith(f"<kernel:{kind}:") for f in first)


# -- the scalar target -------------------------------------------------------


@pytest.fixture(scope="module")
def scalar_kernel():
    """One real emitted scalar kernel (kind, signature, source)."""
    for kind, sig, source, guards in iter_registered_kernel_sources():
        if source is not None and "def _scalar(" in source:
            assert guards == ()
            return kind, sig, source
    raise AssertionError("the registry emits no scalar kernel")


def _scalar_findings(scalar_kernel, source):
    kind, sig, _ = scalar_kernel
    return audit_kernel_source(kind, sig, source)


def test_scalar_kernel_audits_clean_with_its_own_path(scalar_kernel):
    kind, sig, source = scalar_kernel
    assert _scalar_findings(scalar_kernel, source) == []
    corrupted = source.replace("factors", "weights", 1)
    findings = _scalar_findings(scalar_kernel, corrupted)
    assert any(f.rule_id == "KER001" and "signature" in f.message
               for f in findings)
    assert all(f.path.startswith(f"<scalar-kernel:{kind}:")
               for f in findings)


def test_scalar_rebound_local_fails(scalar_kernel):
    source = scalar_kernel[2]
    lines = source.rstrip().splitlines()
    # Rebind the first current local without reading it.
    for index, line in enumerate(lines):
        text = line.strip()
        if text.startswith("_i") and " = " in text:
            name = text.split(" = ")[0]
            lines.insert(index + 1, f"    {name} = 0.0")
            break
    findings = _scalar_findings(scalar_kernel, "\n".join(lines) + "\n")
    assert any(f.rule_id == "KER001" and "rebound" in f.message
               for f in findings)


def test_scalar_early_exit_must_decline(scalar_kernel):
    source = scalar_kernel[2].replace("return None", "return 0.0", 1)
    findings = _scalar_findings(scalar_kernel, source)
    assert any(f.rule_id == "KER001" and "return None" in f.message
               for f in findings)


def test_scalar_final_return_shape(scalar_kernel):
    lines = scalar_kernel[2].rstrip().splitlines()
    final = lines[-1]
    # Drop the last component name: one current would have no name.
    lines[-1] = final[:final.rindex(",")] + ")"
    findings = _scalar_findings(scalar_kernel, "\n".join(lines) + "\n")
    assert any(f.rule_id == "KER001" and "one current per name"
               in f.message for f in findings)


def test_scalar_kernel_must_not_use_numpy(scalar_kernel):
    lines = scalar_kernel[2].rstrip().splitlines()
    lines.insert(2, "    _x0 = _np.sqrt(v)")
    findings = _scalar_findings(scalar_kernel, "\n".join(lines) + "\n")
    assert any(f.rule_id == "KER001" and "numpy" in f.message
               for f in findings)


@pytest.mark.parametrize("line,needle", [
    ("    import os", "import"),
    ("    _t = time.time()", "wall clock"),
    ("    eval('1+1')", None),
])
def test_scalar_kernel_hygiene(scalar_kernel, line, needle):
    lines = scalar_kernel[2].rstrip().splitlines()
    lines.insert(2, line)
    findings = _scalar_findings(scalar_kernel, "\n".join(lines) + "\n")
    assert any(f.rule_id == "KER002"
               and (needle is None or needle in f.message)
               for f in findings)
