"""The package's one exception type."""


class SonarprepError(Exception):
    """Every refusal this package raises; its message is the CLI's ``Error:``
    line, so it says what went wrong and, where a file is at fault, which."""
