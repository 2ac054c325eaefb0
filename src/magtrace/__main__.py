"""``python -m magtrace``: the command line, ended by ``cli.run`` without
interpreter teardown."""

if __name__ == "__main__":
    from .cli import run

    run()
